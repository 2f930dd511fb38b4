"""The benchmark's span hooks still find what they wrap, and its output
checks hold.

``perfbench/spans.py`` rebinds package functions and methods by name and
reads the arguments of some of them in its count hooks.  A renamed or
reshaped target silently drops its layer metrics, or makes a count hook
raise inside a traced step.  These tests load the hook table as it
stands and run under it the CLI steps that the benchmark traces, once
with exact distances (the steps of giant-exact) and once capped (those
of sparse-x and giant-x).

``perfbench/checks.py`` reads the workspace files as plain JSON.  Its
check (b), the x snapshot against the fold of every ledger, runs here on
a workspace that the benchmark never makes: one resumed after a run
over part of its years.
"""

import importlib
import importlib.util
import pkgutil
import random
import sys
from pathlib import Path

import pytest

import citedist
from citedist.cli import main

from synthcorpus import random_corpus_lines

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, registered before it runs (the
    dataclass of ``spans`` looks its module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_traced(tmp_path, exact, reports):
    """Ingest, run, resume and ``reports`` under a tracer of the hook
    table: every step exits 0, every hook resolves, every layer metric is
    present, and the run's windows and search were seen."""
    spans = load_perfbench("spans")
    for info in pkgutil.iter_modules(citedist.__path__):
        if info.name != "__main__":  # the entry point runs the CLI when imported
            importlib.import_module(f"citedist.{info.name}")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(random_corpus_lines(random.Random(7), 60, 20, 2000, 2005)) + "\n")
    config = tmp_path / "engine.cfg"
    config.write_text(f"exact_distances = {str(exact).lower()}\nwindow_length = 3\n")
    ws = str(tmp_path / "ws")
    common = ["--workspace", ws, "--config", str(config)]
    steps = [
        ("ingest", ["ingest", str(corpus), *common]),
        ("run", ["run", "--jobs", "1", *common]),
        ("resume", ["run", "--jobs", "1", *common]),
        *(("report", ["report", *report, *common]) for report in reports),
    ]
    windows = {}
    with spans.Tracer() as tracer:
        for step, argv in steps:
            tracer.step = step
            before = tracer.counts["collab.windows"]
            assert main(argv) == 0, argv
            windows[step] = tracer.counts["collab.windows"] - before
    assert {hook.span for hook in spans.HOOKS} <= tracer.resolved
    metrics = tracer.layer_metrics()
    assert set(spans.LAYER_SPANS) | set(spans.LAYER_COUNTS) <= set(metrics)
    assert metrics["distances.events"] > 0
    computed = len(list((tmp_path / "ws" / "ledgers").glob("*.jsonl")))
    assert tracer.span_seconds("collab.build_window", step="run") > 0
    assert computed > 1 and windows["run"] >= computed


def test_every_hook_resolves_and_feeds_its_layer_metrics(tmp_path):
    run_traced(tmp_path, True, [
        ["network-stats"], ["index-table"], ["rank", "--index", "x"],
        ["c-eq-nw", "--bins", "0,10,20,40"], ["scatter", "--q-max", "20"],
        ["distance-histogram"], ["heatmap"],
        ["closeness", "--q-min", "0", "--q-max", "1000", "--size", "4"],
    ])


def test_every_hook_resolves_on_a_capped_run(tmp_path):
    run_traced(tmp_path, False, [["network-stats"], ["distance-histogram"]])


@pytest.mark.parametrize("exact", [False, True], ids=["capped", "exact"])
def test_check_b_holds_after_a_partial_run_and_a_resume(tmp_path, exact):
    checks = load_perfbench("checks")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(random_corpus_lines(random.Random(29), 150, 30, 2000, 2009)) + "\n")
    config = tmp_path / "engine.cfg"
    config.write_text(f"exact_distances = {str(exact).lower()}\n")
    ws = tmp_path / "ws"
    common = ["--workspace", str(ws), "--config", str(config)]
    assert main(["ingest", str(corpus), *common]) == 0
    assert main(["run", "--years", "2000:2004", *common]) == 0
    assert not any((ws / "states").iterdir())  # the years stop before the last
    assert main(["run", *common]) == 0
    assert len((ws / "states" / "2009.jsonl").read_text().splitlines()) > 10
    ops = checks.Ops()
    checks.check_x_states(ops, ws, 6)
    assert (ops.attempted, ops.failed) == (1, 0), ops.failures
