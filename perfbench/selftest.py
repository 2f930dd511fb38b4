"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They use the tiny presets, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import os
import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

import checks
import corpora
import run
import spans

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"  # ignored by git
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def cli(*args: str) -> None:
    subprocess.run([sys.executable, "-m", "citedist", *args], check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def temp_dir() -> tempfile.TemporaryDirectory:
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


class TinyPresets(unittest.TestCase):
    def test_every_workload_runs_end_to_end(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, names in (("0", e2e), ("1", layers)):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", trace, "--preset", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), names)

    def test_fails_without_a_source_tree(self):
        with temp_dir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench")
            proc = bench("--workload", "giant-x", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class EventsCheck(unittest.TestCase):
    def test_changed_ledger_count_fails(self):
        records = corpora.team_corpus(5, **run.TEAM_TINY)
        with temp_dir() as tmp:
            corpus, ws = Path(tmp) / "corpus.jsonl", Path(tmp) / "ws"
            corpora.write_jsonl(records, corpus)
            cli("ingest", str(corpus), "--workspace", str(ws))
            cli("run", "--workspace", str(ws))
            year = run.TEAM_TINY["year_hi"]
            expected = checks.oracle_event_tally(records, year, run.WINDOW, run.N)

            ops = checks.Ops()
            checks.check_events(ops, ws, year, expected)
            self.assertEqual((ops.attempted, ops.failed), (1, 0), ops.failures)

            copy = Path(tmp) / "copy"
            shutil.copytree(ws, copy)
            path = copy / "ledgers" / f"{year}.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines()
            events = json.loads(lines[1])
            hop = next(iter(events["counts"]))
            events["counts"][hop] += 1
            lines[1] = json.dumps(events, sort_keys=True)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            checks.check_events(ops, copy, year, expected)
        self.assertEqual((ops.attempted, ops.failed), (2, 1))
        self.assertGreater(ops.failed / ops.attempted, 0)


class Hooks(unittest.TestCase):
    def test_unresolved_hook_yields_absent_metric(self):
        cli_mod = spans.import_package(ROOT / "src")
        hooks = [h for h in spans.HOOKS if h.span not in ("collab.bfs", "distances.search")]
        hooks += [
            spans.Hook("collab.bfs", "citedist.collab", "BFSSearcher.no_such_method"),
            spans.Hook("distances.search", "citedist.no_such_module", "compute_event_distances"),
        ]
        records = corpora.team_corpus(6, **dict(run.TEAM_TINY, papers=120))
        with temp_dir() as tmp:
            corpus, ws = Path(tmp) / "corpus.jsonl", Path(tmp) / "ws"
            corpora.write_jsonl(records, corpus)
            with open(Path(tmp) / "log", "w") as sink, spans.Tracer(hooks) as tracer:
                with run.contextlib.redirect_stdout(sink), run.contextlib.redirect_stderr(sink):
                    tracer.step = "ingest"
                    self.assertEqual(cli_mod.main(["ingest", str(corpus), "--workspace", str(ws)]), 0)
                    tracer.step = "run"
                    self.assertEqual(cli_mod.main(["run", "--workspace", str(ws)]), 0)
        metrics = run.layer_metrics([(tracer, {"run": 1.0}, 1.0)],
                                    {"run_s": [1.0], "run_j2_s": [1.0]})
        for absent in ("collab.bfs_s", "collab.bfs_calls", "collab.bfs_found_ratio",
                       "distances.search_s", "distances.events", "trace.run_search_share"):
            self.assertNotIn(absent, metrics)
        self.assertGreater(metrics["collab.build_window_s"], 0)
        self.assertGreater(metrics["workspace.state_write_s"], 0)
        self.assertIn("trace.run_write_share", metrics)
        # the tracer restored every binding it replaced
        from citedist import collab, pipeline
        self.assertIs(pipeline.build_window, collab.build_window)
        self.assertFalse(hasattr(collab.build_window, "__wrapped__"))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
