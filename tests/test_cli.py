"""End-to-end CLI: ingest, run, report, exit codes, idempotence, resume."""

import fcntl
import gc
import hashlib
import importlib
import json
import logging
import os
import pkgutil
import random
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import citedist
from citedist import corpus as corpus_module
from citedist import pipeline as pipeline_module
from citedist.cli import REPORT_NAMES, main
from citedist.collab import build_window
from citedist.config import INDEX_NAMES, Config
from citedist.corpus import parse_records
from citedist.distances import batch_year_distances
from citedist.errors import WorkspaceError
from citedist.pipeline import build_index_records, report_ledgers, run_pipeline
from citedist import workspace as workspace_module
from citedist.workers import split_blocks
from citedist.workspace import Workspace, _atomic_write

from synthcorpus import random_corpus_lines, record_line, table1_lines
from test_benchmark_hooks import load_perfbench


@pytest.fixture
def table1_file(tmp_path):
    path = tmp_path / "seven.jsonl"
    path.write_text("\n".join(table1_lines()) + "\n")
    return path


def write_config(tmp_path, **overrides):
    lines = []
    for key, value in overrides.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    path = tmp_path / "engine.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_validate_table1(table1_file, capsys):
    assert main(["validate", str(table1_file)]) == 0
    out = capsys.readouterr().out
    assert "7 papers, 9 authors, 0 citations" in out


def test_ingest_and_run_table1(table1_file, tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["ingest", str(table1_file), "--workspace", str(ws)]) == 0
    out = capsys.readouterr().out
    assert "7 papers, 9 authors, 0 citations" in out
    assert main(["run", "--workspace", str(ws)]) == 0
    # no citations anywhere: the one x snapshot, after 2018, is empty
    store = parse_records(table1_lines(), Config())
    assert [p.name for p in (ws / "states").iterdir()] == ["2018.jsonl"]
    assert Workspace(ws).read_states(2018, store, Config()) == {}


def test_ingest_malformed_line_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(record_line("p1", 2000, ["a"]) + "\nnot json\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(path), "--workspace", str(ws)]) == 2
    assert "skipped_lines = 1" in capsys.readouterr().out
    assert (ws / "corpus.jsonl").exists()  # lossy but successful


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "absent.jsonl"), "--workspace", str(tmp_path / "ws")]) == 2
    assert "absent.jsonl" in capsys.readouterr().err


def test_locked_workspace_exits_3(table1_file, tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["ingest", str(table1_file), "--workspace", str(ws)]) == 0
    capsys.readouterr()
    with open(ws / ".lock", "a") as held:  # another process mid-run
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        for argv in (["run", "--workspace", str(ws)],
                     ["ingest", str(table1_file), "--workspace", str(ws)]):
            assert main(argv) == 3
            assert f"workspace {ws} is in use" in capsys.readouterr().err
        assert not any((ws / "ledgers").iterdir())
    assert main(["run", "--workspace", str(ws)]) == 0  # released with the file


def test_report_during_ingest_or_run_exits_3(tmp_path, capsys):
    ws = _ran_workspace(tmp_path)
    capsys.readouterr()
    with open(ws / ".lock", "a") as held:  # an ingest or run mid-write
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(["report", "distance-histogram", "--workspace", str(ws)]) == 3
        assert f"workspace {ws} is in use" in capsys.readouterr().err
        assert not (ws / "reports" / "distance-histogram.csv").exists()
    assert main(["report", "distance-histogram", "--workspace", str(ws)]) == 0


def test_concurrent_reports_share_the_lock(tmp_path, capsys):
    ws = _ran_workspace(tmp_path)
    capsys.readouterr()
    with open(ws / ".lock", "a") as held:  # another report mid-read
        fcntl.flock(held, fcntl.LOCK_SH | fcntl.LOCK_NB)
        assert main(["report", "distance-histogram", "--workspace", str(ws)]) == 0
        assert main(["run", "--workspace", str(ws)]) == 3  # a run would replace what it reads
        assert f"workspace {ws} is in use" in capsys.readouterr().err


def test_closed_stdout_exits_141_without_traceback(table1_file, tmp_path, monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader went away, as in `citedist ... | head -1`
    with open(write_end, "w", buffering=1) as stdout:  # each line is written at once
        monkeypatch.setattr("sys.stdout", stdout)
        with pytest.raises(BrokenPipeError):
            print("probe")  # this stdout's writes raise BrokenPipeError
        code = main(["ingest", str(table1_file), "--workspace", str(tmp_path / "ws")])
        stdout.flush()  # stdout now points at the null device: nothing raises
    assert code == 141
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "ws" / "corpus.jsonl").exists()


def test_usage_error_exits_1(capsys):
    assert main(["report", "no-such-report", "--workspace", "x"]) == 1
    err = capsys.readouterr().err
    assert "index-table" in err  # usage message lists valid names


def test_run_before_ingest_exits_3(tmp_path, capsys):
    assert main(["run", "--workspace", str(tmp_path / "ws")]) == 3
    assert "ingest" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["ingest", None], ["run"], ["report", "distance-histogram"]],
                         ids=["ingest", "run", "report"])
def test_workspace_that_is_not_a_directory_exits_3(table1_file, tmp_path, capsys, command):
    path = tmp_path / "ws"
    path.write_text("a regular file\n")
    argv = [str(table1_file) if arg is None else arg for arg in command]
    assert main([*argv, "--workspace", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error: " in err and str(path) in err and "is not a directory" in err
    assert path.read_text() == "a regular file\n"


def test_two_paper_pipeline_hand_computed(tmp_path):
    # bridge c: cited paper {a, c}, citing paper {b}, path b-c-a of length 1
    # via the shared co-authorship window
    lines = [
        record_line("p0", 2000, ["a", "c"]),
        record_line("p1", 2001, ["b", "c"]),
        record_line("p2", 2002, ["b"], ["p0"]),
    ]
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws)]) == 0
    assert main(["run", "--workspace", str(ws)]) == 0
    store = parse_records(lines, Config())
    states = Workspace(ws).read_states(2002, store, Config())
    a = store.author_index
    # citing author b: d(b, a) = 2 (b-c, c-a), d(b, c) = 1 -> event distance 1
    # each coauthor of p0 is credited weight 1/6 (scaled by n = 6 -> 1)
    assert states[a["a"]] == 1
    assert states[a["c"]] == 1
    assert a["b"] not in states


def test_disconnected_citation_gives_full_weight(tmp_path):
    lines = [
        record_line("p0", 2000, ["a"]),
        record_line("p1", 2001, ["b"], ["p0"]),
    ]
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    main(["ingest", str(src), "--workspace", str(ws)])
    main(["run", "--workspace", str(ws)])
    store = parse_records(lines, Config())
    states = Workspace(ws).read_states(2001, store, Config())
    # no path between a and b: weight 1, stored scaled by n = 6
    assert states[store.author_index["a"]] == 6


def test_rerun_is_byte_identical(tmp_path):
    rng = random.Random(19)
    lines = random_corpus_lines(rng, 120, 25, 2000, 2008)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws)]) == 0
    assert main(["run", "--workspace", str(ws)]) == 0
    before = tree_bytes(ws)
    assert main(["run", "--workspace", str(ws)]) == 0
    assert tree_bytes(ws) == before


def test_resume_matches_uninterrupted(tmp_path):
    rng = random.Random(29)
    lines = random_corpus_lines(rng, 150, 30, 2000, 2009)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")

    ws_full = tmp_path / "full"
    main(["ingest", str(src), "--workspace", str(ws_full)])
    main(["run", "--workspace", str(ws_full)])

    ws_part = tmp_path / "part"
    main(["ingest", str(src), "--workspace", str(ws_part)])
    # run the first half, as if the process died mid-way, then resume
    assert main(["run", "--workspace", str(ws_part), "--years", "2000:2004"]) == 0
    assert main(["run", "--workspace", str(ws_part)]) == 0
    assert tree_bytes(ws_part / "ledgers") == tree_bytes(ws_full / "ledgers")
    assert tree_bytes(ws_part / "states") == tree_bytes(ws_full / "states")


@pytest.mark.parametrize("exact", [False, True])
def test_interrupted_run_resumes_byte_identical(tmp_path, monkeypatch, exact):
    """A run stopped in the ledger write of the year after a middle year,
    or in the write of the x snapshot after the last year, leaves no
    snapshot and resumes to the same artifacts as an uninterrupted run;
    the benchmark's check of the snapshot against the ledgers holds."""
    rng = random.Random(83)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(random_corpus_lines(rng, 160, 30, 2000, 2008)) + "\n")
    cfg = ["--config", str(write_config(tmp_path, exact_distances=exact))]
    ws_full = tmp_path / "full"
    assert main(["ingest", str(src), "--workspace", str(ws_full), *cfg]) == 0
    assert main(["run", "--workspace", str(ws_full), *cfg]) == 0
    assert [p.name for p in (ws_full / "states").iterdir()] == ["2008.jsonl"]
    checks = load_perfbench("checks")

    for method, stop in (("write_ledger", 2003), ("write_ledger", 2006),
                         ("write_states", 2008)):
        write = getattr(Workspace, method)

        def write_or_stop(self, first, *args):
            if (first if method == "write_states" else first.year) == stop:
                raise KeyboardInterrupt
            write(self, first, *args)

        ws = tmp_path / f"part-{method}-{stop}"
        assert main(["ingest", str(src), "--workspace", str(ws), *cfg]) == 0
        monkeypatch.setattr(Workspace, method, write_or_stop)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--workspace", str(ws), *cfg])
        monkeypatch.setattr(Workspace, method, write)
        done = range(2000, 2009 if method == "write_states" else stop)
        assert Workspace(ws).completed_years() == list(done)
        assert not any((ws / "states").iterdir())
        assert main(["run", "--workspace", str(ws), *cfg]) == 0
        assert tree_bytes(ws / "ledgers") == tree_bytes(ws_full / "ledgers")
        assert tree_bytes(ws / "states") == tree_bytes(ws_full / "states")
        ops = checks.Ops()
        checks.check_x_states(ops, ws, 6)
        assert (ops.attempted, ops.failed) == (1, 0), ops.failures


@pytest.mark.parametrize("missing", ["ledgers", "states"])
def test_run_recreates_missing_artifact_dir(tmp_path, missing):
    rng = random.Random(5)
    lines = random_corpus_lines(rng, 40, 10, 2000, 2003)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws)]) == 0
    (ws / missing).rmdir()
    assert main(["run", "--workspace", str(ws)]) == 0
    assert Workspace(ws).completed_years() == [2000, 2001, 2002, 2003]


def _ran_workspace(tmp_path, **config):
    """A workspace after ingest and run of a random 2000-2003 corpus."""
    lines = random_corpus_lines(random.Random(7), 60, 12, 2000, 2003)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    cfg = ["--config", str(write_config(tmp_path, **config))] if config else []
    assert main(["ingest", str(src), "--workspace", str(ws), *cfg]) == 0
    assert main(["run", "--workspace", str(ws), *cfg]) == 0
    return ws


def _change_digit(path, pattern):
    """Change the first digit that ``pattern`` (ending in a group for the
    digit) finds in ``path``; the file stays valid JSON lines."""
    text = path.read_text()
    changed = re.sub(pattern, lambda m: m[0][:-1] + str(int(m[1]) % 9 + 1), text, count=1)
    assert changed != text
    path.write_text(changed)


def _empty_ledger(ws, src):
    (ws / "ledgers" / "2003.jsonl").write_text("")
    return [["report", "distance-histogram"]], "2003.jsonl"


def _truncated_state(ws, src):
    path = ws / "states" / "2003.jsonl"
    path.write_bytes(path.read_bytes()[:-2])  # cut the last line mid-object
    return [["run"]], "2003.jsonl"


def _foreign_corpus(ws, src):
    other = src.with_name("other.jsonl")
    other.write_text("\n".join([
        record_line("q0", 2000, ["zed"]),
        record_line("q1", 2001, ["yan"], ["q0"]),
    ]) + "\n")
    assert main(["ingest", str(other), "--workspace", str(ws)]) == 0
    return [["run"]], "2000.jsonl"


def _truncated_ledger(ws, src):
    path = ws / "ledgers" / "2002.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"\n") + 12])  # cut inside the events line
    return [["report", "distance-histogram"]], "2002.jsonl"


def _blank_line_in_state(ws, src):
    path = ws / "states" / "2003.jsonl"
    head, first, rest = path.read_text().split("\n", 2)
    assert rest  # the blank line goes between two records
    path.write_text(f"{head}\n{first}\n\n{rest}")
    return [["run"]], "2003.jsonl"


def _header_only_ledger(ws, src):
    path = ws / "ledgers" / "2002.jsonl"
    path.write_text(path.read_text().split("\n", 1)[0] + "\n")
    return [["report", "distance-histogram"]], "2002.jsonl"


def _ledger_trailing_garbage(ws, src):
    path = ws / "ledgers" / "2001.jsonl"
    text = path.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    path.write_text(text[:-1] + ", " + last + "\n")  # a second, valid value on the line
    return [["run"]], "2001.jsonl"


def _ledger_count_digit(ws, src):
    _change_digit(ws / "ledgers" / "2003.jsonl", r'"kind":"events"}\n\{"counts":\{"\d+":(\d)')
    return [["run"], ["report", "distance-histogram"]], "2003.jsonl"


def _state_xn_digit(ws, src):
    _change_digit(ws / "states" / "2003.jsonl", r'"xn":(\d)')
    return [["run"]], "2003.jsonl"


def _ledger_events_line_dropped(ws, src):
    path = ws / "ledgers" / "2002.jsonl"
    head, _events, rest = path.read_text().split("\n", 2)
    assert rest  # a scholar line moves up into the place of the events line
    path.write_text(f"{head}\n{rest}")
    return [["report", "distance-histogram"]], "2002.jsonl"


def _steps_that_load_the_snapshot(ws, src):
    """Make a resume and a run under another config load the snapshot:
    the last year of the run is deleted, and no year is complete under
    exact distances."""
    (ws / "ledgers" / "2003.jsonl").unlink()
    cfg = write_config(src.parent, exact_distances=True)
    return [["run"], ["run", "--config", str(cfg)], ["report", "network-stats"]], "corpus.jsonl"


def _snapshot_truncated_line(ws, src):
    path = ws / "corpus.jsonl"
    lines = path.read_bytes().split(b"\n")
    lines[10] = lines[10][:-3]
    path.write_bytes(b"\n".join(lines))
    return _steps_that_load_the_snapshot(ws, src)


def _snapshot_digit(ws, src):
    _change_digit(ws / "corpus.jsonl", r'"year":\d\d\d(\d)')
    return _steps_that_load_the_snapshot(ws, src)


def _meta_truncated(ws, src):
    path = ws / "corpus.meta.json"
    path.write_text(path.read_text()[:40])
    return [["run"], ["report", "distance-histogram"]], "corpus.meta.json"


def _meta_paper_years(ws, src):
    """A later last year keeps the meta valid JSON; a run reaches it
    and loads the snapshot, whose years do not match."""
    path = ws / "corpus.meta.json"
    meta = json.loads(path.read_text())
    meta["paper_years"][-1] += 1
    path.write_text(json.dumps(meta))
    return [["run"], ["report", "network-stats"]], "corpus.meta.json"


def _meta_edit(edit):
    """A damage that replaces the meta object by ``edit(meta)``; the file
    stays valid JSON."""

    def damage(ws, src):
        path = ws / "corpus.meta.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return [["run"], ["report", "distance-histogram"]], "corpus.meta.json"

    return damage


def _edit_header(path, old, new):
    """Replace ``old`` by ``new`` in the header line of ``path``, which the
    record digest does not cover."""
    head, rest = path.read_text().split("\n", 1)
    assert old in head
    path.write_text(f"{head.replace(old, new)}\n{rest}")


def _exact_run(ws, src, *years):
    """Run the workspace again under exact distances and make the index
    snapshot of each of ``years``; the options of that config."""
    cfg = ["--config", str(write_config(src.parent, exact_distances=True))]
    assert main(["run", "--workspace", str(ws), *cfg]) == 0
    for year in years:
        report = ["report", "index-table", "--year", str(year)]
        assert main([*report, "--workspace", str(ws), *cfg]) == 0
    return cfg


def _index_header_scale(ws, src):
    cfg = _exact_run(ws, src, 2003)
    _edit_header(ws / "indices" / "2003.jsonl", '"scale":6', '"scale":3')
    return [["report", "index-table", *cfg]], "2003.jsonl"


def _index_header_year(ws, src):
    cfg = _exact_run(ws, src, 2002)
    _edit_header(ws / "indices" / "2002.jsonl", '"year":2002', '"year":2003')
    return [["report", "index-table", "--year", "2002", *cfg]], "2002.jsonl"


def _ledger_header_cap(ws, src):
    cfg = _exact_run(ws, src)
    _edit_header(ws / "ledgers" / "2002.jsonl", '"cap":null', '"cap":6')
    return [["run", *cfg], ["report", "distance-histogram", *cfg],
            ["report", "index-table", *cfg]], "2002.jsonl"


def _ledger_header_year(ws, src):
    _edit_header(ws / "ledgers" / "2002.jsonl", '"year":2002', '"year":2001')
    return [["run"], ["report", "distance-histogram"]], "2002.jsonl"


def _directory_in_place(path):
    """Replace the file at ``path`` by an empty directory of its name."""
    path.unlink()
    path.mkdir()


def _ledger_directory(ws, src):
    _directory_in_place(ws / "ledgers" / "2003.jsonl")
    return [["run"], ["report", "index-table"]], "2003.jsonl"


def _state_directory(ws, src):
    _directory_in_place(ws / "states" / "2003.jsonl")
    return [["run"]], "2003.jsonl"


def _index_directory(ws, src):
    cfg = _exact_run(ws, src, 2003)
    _directory_in_place(ws / "indices" / "2003.jsonl")
    return [["report", "index-table", *cfg]], "2003.jsonl"


def _snapshot_directory(ws, src):
    _directory_in_place(ws / "corpus.jsonl")
    return [["report", "network-stats"]], "corpus.jsonl"


def _meta_directory(ws, src):
    _directory_in_place(ws / "corpus.meta.json")
    return [["run"]], "corpus.meta.json"


@pytest.mark.parametrize("damage", [_empty_ledger, _truncated_state, _foreign_corpus,
                                    _truncated_ledger, _blank_line_in_state,
                                    _ledger_trailing_garbage, _header_only_ledger,
                                    _ledger_count_digit, _state_xn_digit,
                                    _ledger_events_line_dropped,
                                    _snapshot_truncated_line, _snapshot_digit,
                                    _meta_truncated, _meta_paper_years,
                                    _meta_edit(lambda meta: [1]),
                                    _meta_edit(lambda meta: {k: v for k, v in meta.items()
                                                             if k != "corpus_sha256"}),
                                    _meta_edit(lambda meta: {**meta, "paper_years": ["x"]}),
                                    _index_header_scale, _index_header_year,
                                    _ledger_header_cap, _ledger_header_year,
                                    _ledger_directory, _state_directory, _index_directory,
                                    _snapshot_directory, _meta_directory],
                         ids=["empty-ledger", "truncated-state", "foreign-corpus",
                              "truncated-ledger", "blank-line-in-state",
                              "ledger-trailing-garbage", "header-only-ledger",
                              "ledger-count-digit", "state-xn-digit",
                              "ledger-events-line-dropped", "snapshot-truncated-line",
                              "snapshot-digit", "meta-truncated", "meta-paper-years",
                              "meta-not-object", "meta-no-corpus-hash", "meta-year-not-int",
                              "index-header-scale", "index-header-year",
                              "ledger-header-cap", "ledger-header-year",
                              "ledger-directory", "state-directory", "index-directory",
                              "snapshot-directory", "meta-directory"])
def test_damaged_or_foreign_artifact_exits_3(tmp_path, capsys, damage):
    ws = _ran_workspace(tmp_path)
    commands, file_name = damage(ws, tmp_path / "c.jsonl")
    for command in commands:
        capsys.readouterr()
        assert main([*command, "--workspace", str(ws)]) == 3
        err = capsys.readouterr().err
        assert "error: cannot read " in err and file_name in err


def test_directory_in_place_of_the_lock_exits_3(tmp_path, capsys):
    ws = _ran_workspace(tmp_path)
    _directory_in_place(ws / ".lock")
    capsys.readouterr()
    for command in (["ingest", str(tmp_path / "c.jsonl")], ["run"], ["report", "index-table"]):
        assert main([*command, "--workspace", str(ws)]) == 3
        assert f"error: cannot open {ws / '.lock'}: " in capsys.readouterr().err


@pytest.mark.parametrize("target", ["states/2003.jsonl", "corpus.jsonl"])
def test_directory_at_a_written_path_exits_3(tmp_path, capsys, target):
    """A directory where ``run`` writes the x snapshot (after a deleted
    ledger makes it recompute), or where a second ``ingest`` writes the
    corpus snapshot, stops the command with one error line that names
    the path, and leaves no temp file."""
    ws = _ran_workspace(tmp_path)
    _directory_in_place(ws / target)
    if target.startswith("states"):
        (ws / "ledgers" / "2001.jsonl").unlink()
        command = ["run"]
    else:
        command = ["ingest", str(tmp_path / "c.jsonl")]
    capsys.readouterr()
    assert main([*command, "--workspace", str(ws)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {ws / target}: ") and err.count("\n") == 1
    assert not [p.name for p in ws.rglob("*.tmp")]


def test_workspace_of_an_older_ingest_exits_3(tmp_path, capsys):
    """A meta without ``paper_years`` asks for a new ingest; nothing
    falls back to parsing the snapshot for its years."""
    ws = _ran_workspace(tmp_path)
    meta_path = ws / "corpus.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["paper_years"]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    for command in (["run"], ["report", "distance-histogram"],
                    ["report", "network-stats", "--year", "2003"]):
        assert main([*command, "--workspace", str(ws)]) == 3
        assert "run 'ingest' again" in capsys.readouterr().err


def test_every_report_of_a_citationless_workspace_exits_cleanly(tmp_path, capsys):
    """Two papers without references, run exact: every report exits 0,
    or 2 or 3 with one error line, and none raises.  The index reports
    that list scholars write their header alone, since none is credited."""
    src = tmp_path / "c.jsonl"
    src.write_text(record_line("p0", 2000, ["a"]) + "\n" + record_line("p1", 2001, ["b"]) + "\n")
    ws = tmp_path / "ws"
    common = ["--workspace", str(ws), "--config", str(write_config(tmp_path, exact_distances=True))]
    assert main(["ingest", str(src), *common]) == 0
    assert main(["run", *common]) == 0
    headers = {"index-table": "scholar,year,Q,h,g,c,N_w,x", "rank": "rank,scholar,x,Q",
               "scatter": "Q,x"}
    for name in REPORT_NAMES:
        capsys.readouterr()
        code = main(["report", name, *common])
        err = capsys.readouterr().err
        assert code == 0 or (code in (2, 3) and err.startswith("error: ")
                             and err.count("\n") == 1), (name, code, err)
        if name in headers:
            assert code == 0
            assert (ws / "reports" / f"{name}.csv").read_text() == headers[name] + "\n"


def test_config_without_papers_exits_2(tmp_path, capsys):
    """A config whose year range holds no paper stops a fresh run, a
    resume and every report with the error of an empty corpus."""
    ws = _ran_workspace(tmp_path)
    fresh = tmp_path / "fresh"
    assert main(["ingest", str(tmp_path / "c.jsonl"), "--workspace", str(fresh)]) == 0
    cfg = str(write_config(tmp_path, year_start=1900, year_end=1950))
    steps = [["run", "--workspace", str(fresh)], ["run", "--workspace", str(ws)]]
    steps += [["report", name, "--workspace", str(ws)] for name in REPORT_NAMES]
    capsys.readouterr()
    for argv in steps:
        assert main([*argv, "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: no valid paper records in input\n"


def test_complete_resume_and_histogram_read_no_snapshot(tmp_path, monkeypatch, capsys):
    """A resume that finds every year complete and the distance histogram
    never load the corpus snapshot, and write what they wrote before."""
    ws = _ran_workspace(tmp_path)
    histograms = (["report", "distance-histogram", "--workspace", str(ws)],
                  ["report", "distance-histogram", "--workspace", str(ws), "--years", "2001:2003"])

    def reports():
        out = []
        for argv in histograms:
            assert main(argv) == 0
            out.append(tree_bytes(ws / "reports"))
        return out

    expected = reports()
    artifacts = tree_bytes(ws)

    def no_snapshot(*args, **kwargs):
        raise AssertionError("the corpus snapshot was read")

    monkeypatch.setattr(Workspace, "load_store", no_snapshot)
    monkeypatch.setattr(corpus_module, "parse_snapshot", no_snapshot)
    monkeypatch.setattr(corpus_module, "parse_records", no_snapshot)
    capsys.readouterr()
    assert main(["run", "--workspace", str(ws)]) == 0
    assert "processed 0 years, skipped 4 already complete" in capsys.readouterr().out
    assert tree_bytes(ws) == artifacts
    assert reports() == expected


def test_silently_damaged_ledger_fails_index_reports(tmp_path, capsys):
    """A changed count keeps the ledger valid JSON; its record digest
    still makes the index reports refuse it."""
    ws = _ran_workspace(tmp_path, exact_distances=True)
    cfg = str(tmp_path / "engine.cfg")
    assert main(["report", "index-table", "--workspace", str(ws), "--config", cfg]) == 0
    _ledger_count_digit(ws, None)
    capsys.readouterr()
    assert main(["report", "index-table", "--workspace", str(ws), "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "error: cannot read " in err and "2003.jsonl" in err


def test_run_after_ingesting_another_corpus_exits_3(tmp_path, capsys):
    """Artifacts of corpus A never answer for corpus B, even when B has
    the same papers, authors and years and only its citations differ."""
    lines_a = random_corpus_lines(random.Random(23), 120, 25, 2000, 2005)
    lines_b = []
    for line in lines_a:  # every paper drops its last reference
        paper = json.loads(line)
        lines_b.append(record_line(paper["id"], paper["year"], paper["authors"],
                                   paper["references"][:-1]))
    assert lines_b != lines_a
    corpus_a, corpus_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    corpus_a.write_text("\n".join(lines_a) + "\n")
    corpus_b.write_text("\n".join(lines_b) + "\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(corpus_a), "--workspace", str(ws)]) == 0
    assert main(["run", "--workspace", str(ws)]) == 0
    assert main(["ingest", str(corpus_b), "--workspace", str(ws)]) == 0
    capsys.readouterr()
    assert main(["run", "--workspace", str(ws)]) == 3
    captured = capsys.readouterr()
    assert "already complete" not in captured.out
    assert re.search(r"error: cannot read \S*ledgers/2000\.jsonl", captured.err)
    assert main(["report", "distance-histogram", "--workspace", str(ws)]) == 3


def test_atomic_write_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "2000.jsonl"
    _atomic_write(path, lambda fp: fp.write("previous\n"))

    def failing(fp):
        fp.write("half a line")
        raise KeyError("unknown author")

    with pytest.raises(KeyError):
        _atomic_write(path, failing)
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["2000.jsonl"]


def test_atomic_write_temp_file_is_per_process(tmp_path, monkeypatch):
    path = tmp_path / "report.csv"
    pids = iter([101, 202])
    monkeypatch.setattr(workspace_module.os, "getpid", lambda: next(pids))

    def first(fp):
        fp.write("first\n")
        # a second process writes the same file while the first is writing
        _atomic_write(path, lambda other: other.write("second\n"))

    _atomic_write(path, first)
    assert path.read_text() == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]


def test_run_logs_compute_and_write_seconds(tmp_path, caplog):
    rng = random.Random(11)
    lines = random_corpus_lines(rng, 30, 8, 2000, 2002)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws)]) == 0
    with caplog.at_level(logging.INFO, logger="citedist"):
        assert main(["run", "--workspace", str(ws)]) == 0
    years = [r.getMessage() for r in caplog.records if r.getMessage().startswith("year ")]
    assert len(years) == 3
    assert all(re.search(r"\(window \d+\.\d\ds, compute \d+\.\d\ds, write \d+\.\d\ds\)$", m)
               for m in years)


def test_run_gap_exits_3(tmp_path, capsys):
    rng = random.Random(3)
    lines = random_corpus_lines(rng, 60, 10, 2000, 2006)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    main(["ingest", str(src), "--workspace", str(ws)])
    assert main(["run", "--workspace", str(ws), "--years", "2003:2006"]) == 3
    assert "snapshot" in capsys.readouterr().err


def test_report_network_stats_table1(table1_file, tmp_path, capsys):
    ws = tmp_path / "ws"
    main(["ingest", str(table1_file), "--workspace", str(ws)])
    assert main(["report", "network-stats", "--workspace", str(ws), "--year", "2018"]) == 0
    path = ws / "reports" / "network-stats.csv"
    rows = path.read_text().splitlines()
    assert rows[0].startswith("year,nodes,edges")
    assert rows[1].startswith("2018,7,8,")
    manifest = json.loads(path.with_suffix(".manifest.json").read_text())
    assert manifest["report"] == "network-stats"
    assert manifest["params"]["year"] == 2018


def test_report_edges(table1_file, tmp_path):
    ws = tmp_path / "ws"
    main(["ingest", str(table1_file), "--workspace", str(ws)])
    main(["report", "edges", "--workspace", str(ws), "--year", "2018"])
    rows = (ws / "reports" / "edges.csv").read_text().splitlines()
    assert rows[0] == "author_a,author_b"
    assert "2,9" in rows and len(rows) == 9


def test_report_index_table_schema(tmp_path):
    rng = random.Random(43)
    lines = random_corpus_lines(rng, 80, 15, 2000, 2006)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, exact_distances=True)
    ws = tmp_path / "ws"
    main(["ingest", str(src), "--workspace", str(ws), "--config", str(cfg)])
    main(["run", "--workspace", str(ws), "--config", str(cfg)])
    assert main(["report", "index-table", "--workspace", str(ws),
                 "--config", str(cfg), "--year", "2006"]) == 0
    rows = (ws / "reports" / "index-table.csv").read_text().splitlines()
    assert rows[0] == "scholar,year,Q,h,g,c,N_w,x"
    assert len(rows) > 1
    # x column is rendered with two decimals
    assert all(r.rsplit(",", 1)[1].count(".") == 1 for r in rows[1:])


def test_index_reports_need_exact_mode(tmp_path, capsys):
    rng = random.Random(47)
    lines = random_corpus_lines(rng, 60, 12, 2000, 2004)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    ws = tmp_path / "ws"
    main(["ingest", str(src), "--workspace", str(ws)])
    main(["run", "--workspace", str(ws)])  # default capped mode
    assert main(["report", "index-table", "--workspace", str(ws), "--year", "2004"]) == 3
    assert "exact" in capsys.readouterr().err


@pytest.mark.parametrize("flag,report", [("--max-bin", "distance-histogram"),
                                         ("--max-repeat", "heatmap"),
                                         ("--max-distance", "heatmap")])
def test_negative_report_bin_is_a_usage_error(tmp_path, capsys, flag, report):
    assert main(["report", report, "--workspace", str(tmp_path), flag, "-4"]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= 0, got -4" in err


@pytest.mark.parametrize("argv,message", [
    (["closeness", "--size", "1"],
     "argument --size: closeness needs a cohort of at least 2, got 1"),
    (["closeness", "--size", "-1"], "argument --size: must be >= 0, got -1"),
    (["scatter", "--size", "-3"], "argument --size: must be >= 0, got -3"),
    (["c-eq-nw", "--bins", "1,x"],
     "argument --bins: expected comma-separated integers, got '1,x'"),
    (["c-eq-nw", "--bins", "10,5"], "argument --bins: expected at least 2 strictly increasing"),
    (["c-eq-nw", "--bins", "10"], "argument --bins: expected at least 2 strictly increasing"),
], ids=["closeness-size-1", "closeness-size-negative", "scatter-size-negative",
        "bins-not-integers", "bins-decreasing", "bins-single"])
def test_bad_report_size_or_bins_is_a_usage_error(tmp_path, capsys, argv, message):
    name, *options = argv
    assert main(["report", name, "--workspace", str(tmp_path), *options]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: citedist report") and message in err
    assert "Traceback" not in err


def test_report_year_before_every_ledger_names_it(tmp_path, capsys):
    ws = _ran_workspace(tmp_path, exact_distances=True)
    cfg = ["--config", str(tmp_path / "engine.cfg")]
    capsys.readouterr()
    assert main(["report", "index-table", "--workspace", str(ws), "--year", "1900", *cfg]) == 3
    assert capsys.readouterr().err == (
        "error: no ledger for year 1900 or earlier; the ledgers start at 2000\n")
    assert main(["report", "distance-histogram", "--workspace", str(ws),
                 "--years", "1900:1950", *cfg]) == 3
    assert "no ledger for year 1950 or earlier" in capsys.readouterr().err


def test_reports_need_every_planned_ledger_through_their_year(tmp_path, capsys):
    """After a run of 2003-2004 alone, the index and histogram reports of
    2004 exit 3 naming the years before and cache nothing, while the
    histogram of the computed years writes the bytes of a full
    workspace's; a deleted middle ledger makes the histogram exit 3
    naming it, not omit it as a year without citations."""
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(random_corpus_lines(random.Random(5), 200, 30, 2000, 2005)) + "\n")
    cfg = ["--config", str(write_config(tmp_path, exact_distances=True))]
    partial, full = tmp_path / "partial", tmp_path / "full"
    for ws, years in ((partial, ["--years", "2003:2004"]), (full, [])):
        assert main(["ingest", str(src), "--workspace", str(ws), *cfg]) == 0
        assert main(["run", "--workspace", str(ws), *years, *cfg]) == 0
    capsys.readouterr()
    for report in ("index-table", "distance-histogram"):
        assert main(["report", report, "--year", "2004", "--workspace", str(partial), *cfg]) == 3
        assert capsys.readouterr().err == "error: missing ledger years: [2000, 2001, 2002]\n"
    assert not (partial / "indices").exists() and not tree_bytes(partial / "reports")
    for ws in (partial, full):
        assert main(["report", "distance-histogram", "--years", "2003:2004",
                     "--workspace", str(ws), *cfg]) == 0
    assert tree_bytes(partial / "reports") == tree_bytes(full / "reports")
    (full / "ledgers" / "2003.jsonl").unlink()
    capsys.readouterr()
    assert main(["report", "distance-histogram", "--workspace", str(full), *cfg]) == 3
    assert capsys.readouterr().err == "error: missing ledger years: [2003]\n"


def test_report_year_after_the_plan_names_the_last_year(tmp_path, capsys):
    ws = _ran_workspace(tmp_path, exact_distances=True)
    capsys.readouterr()
    assert main(["report", "index-table", "--workspace", str(ws), "--year", "2030",
                 "--config", str(tmp_path / "engine.cfg")]) == 3
    assert capsys.readouterr().err == "error: year 2030 is after the last planned year, 2003\n"


_IMPORTED = """
import sys
before = set(sys.modules)
from citedist.cli import main
code = main(sys.argv[1:])
print(*sorted(set(sys.modules) - before & {"dataclasses", "inspect"}))
print(*sorted(m for m in sys.modules if m.startswith("citedist.") or m == "logging"))
print(code, "citedist.analytics" in sys.modules, "statistics" in sys.modules)
"""

GRAPH_LAYER = {"citedist.collab", "citedist.corpus", "citedist.analytics"}
STDLIB_HEAVY = {"dataclasses", "inspect"}  # no step and no module may load these
LIGHT_LAYER = ("errors", "config", "codec", "distances", "indices", "workspace", "pipeline",
               "workers", "cli")


def test_only_analytics_reports_import_analytics(tmp_path):
    """Each step runs in a fresh interpreter: ingest, run, resume and the
    reports that need no index records leave ``citedist.analytics`` and
    ``statistics`` unimported; a report that ranks imports both.  A
    resume that finds every year complete, ``distance-histogram`` and
    the index reports served from a snapshot import no graph module, a
    resume not even the ledger types, and only ``run`` imports
    ``logging``."""
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(random_corpus_lines(random.Random(7), 60, 12, 2000, 2003)) + "\n")
    ws = str(tmp_path / "ws")
    cfg = ["--config", str(write_config(tmp_path, exact_distances=True))]
    loaded = []  # the modules of each step, in order

    def imported(*argv):
        out = subprocess.run([sys.executable, "-c", _IMPORTED, *argv, *cfg],
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-3] == "", (argv, out.splitlines()[-3])  # no STDLIB_HEAVY
        *_, modules, summary = out.splitlines()
        loaded.append(set(modules.split()))
        return summary

    for argv in (["ingest", str(src)], ["run"], ["run"], ["report", "distance-histogram"],
                 ["report", "network-stats"], ["report", "edges"], ["report", "index-table"]):
        assert imported(*argv, "--workspace", ws) == "0 False False", argv
        assert ("logging" in loaded[-1]) == (argv == ["run"]), argv
    resume, histogram = loaded[2], loaded[3]
    assert not resume & (GRAPH_LAYER | {"citedist.distances", "citedist.indices"}), resume
    assert not histogram & GRAPH_LAYER, histogram
    assert imported("report", "rank", "--workspace", ws) == "0 True True"
    assert imported("report", "index-table", "--workspace", ws) == "0 False False"
    for hit in loaded[-2:]:  # both read the snapshot the first index-table wrote
        assert not hit & {"citedist.collab", "citedist.corpus"}, hit
    assert imported("report", "heatmap", "--workspace", ws) == "0 True True"


def test_light_modules_import_no_graph_module():
    """Each light module, imported alone in a fresh interpreter, loads
    no graph module; the package itself loads no module at all."""
    for name in ("citedist", *(f"citedist.{m}" for m in LIGHT_LAYER)):
        out = subprocess.run(
            [sys.executable, "-c", f"import sys, {name}; "
             "print(*sorted(m for m in sys.modules if m.startswith('citedist.')))"],
            capture_output=True, text=True, check=True).stdout.split()
        assert not set(out) & GRAPH_LAYER, (name, out)
        if name == "citedist":
            assert out == [], out
    every = [f"citedist.{m.name}" for m in pkgutil.iter_modules(citedist.__path__)
             if m.name != "__main__"]
    assert "citedist.cli" in every and "citedist.analytics" in every, every
    out = subprocess.run(
        [sys.executable, "-c", "import importlib, sys; before = set(sys.modules); "
         f"[importlib.import_module(m) for m in {every!r}]; "
         f"print(*sorted(set(sys.modules) - before & {STDLIB_HEAVY!r}))"],
        capture_output=True, text=True, check=True).stdout.split()
    assert out == [], out


def test_package_names_resolve_to_their_defining_modules():
    namespace = {}
    exec("from citedist import *", namespace)
    listed = dir(citedist)
    for name in citedist.__all__:
        value = getattr(citedist, name)
        home = getattr(value, "__module__", "citedist.codec")  # the int distance codes
        assert value is getattr(importlib.import_module(home), name), name
        assert namespace[name] is value, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        citedist.no_such_name


def test_histogram_of_another_config_exits_3(tmp_path, capsys):
    rng = random.Random(79)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(random_corpus_lines(rng, 60, 12, 2000, 2003)) + "\n")
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws)]) == 0
    assert main(["run", "--workspace", str(ws)]) == 0
    cfg = write_config(tmp_path, exact_distances=True)
    capsys.readouterr()
    assert main(["report", "distance-histogram", "--workspace", str(ws),
                 "--config", str(cfg)]) == 3
    assert "produced by a different configuration; re-run" in capsys.readouterr().err


def test_report_before_run_exits_3(table1_file, tmp_path, capsys):
    ws = tmp_path / "ws"
    main(["ingest", str(table1_file), "--workspace", str(ws)])
    assert main(["report", "distance-histogram", "--workspace", str(ws)]) == 3
    assert "run" in capsys.readouterr().err


def test_rank_and_histogram_reports(tmp_path):
    rng = random.Random(53)
    lines = random_corpus_lines(rng, 120, 20, 2000, 2007)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, exact_distances=True)
    ws = tmp_path / "ws"
    main(["ingest", str(src), "--workspace", str(ws), "--config", str(cfg)])
    main(["run", "--workspace", str(ws), "--config", str(cfg)])
    assert main(["report", "rank", "--workspace", str(ws), "--config", str(cfg),
                 "--year", "2007", "--index", "x"]) == 0
    rows = (ws / "reports" / "rank.csv").read_text().splitlines()
    assert rows[0] == "rank,scholar,x,Q"
    positions = [int(r.split(",")[0]) for r in rows[1:]]
    assert positions == list(range(1, len(positions) + 1))

    # Each rank value cell is the scholar's cell in that index's
    # index-table column: x and c print as index-table prints them.
    assert main(["report", "index-table", "--workspace", str(ws), "--config", str(cfg),
                 "--year", "2007"]) == 0
    header, *table = (ws / "reports" / "index-table.csv").read_text().splitlines()
    cells = {row.split(",")[0]: dict(zip(header.split(","), row.split(","))) for row in table}
    assert any(not c["x"].endswith(".00") for c in cells.values())
    for index in INDEX_NAMES:
        assert main(["report", "rank", "--workspace", str(ws), "--config", str(cfg),
                     "--year", "2007", "--index", index]) == 0
        ranked = [row.split(",") for row in
                  (ws / "reports" / "rank.csv").read_text().splitlines()[1:]]
        assert len(ranked) == len(cells)
        for _position, scholar, value, _q in ranked:
            assert value == cells[scholar][index], (index, scholar)

    assert main(["report", "distance-histogram", "--workspace", str(ws),
                 "--config", str(cfg), "--years", "2000:2007"]) == 0
    hist_rows = (ws / "reports" / "distance-histogram.csv").read_text().splitlines()
    assert hist_rows[0] == "year,distance,proportion"

    assert main(["report", "heatmap", "--workspace", str(ws), "--config", str(cfg),
                 "--years", "2000:2007"]) == 0
    heat_rows = (ws / "reports" / "heatmap.csv").read_text().splitlines()
    assert heat_rows[0] == "repeats,distance,pairs"

    assert main(["report", "scatter", "--workspace", str(ws), "--config", str(cfg),
                 "--year", "2007", "--q-max", "1000", "--size", "10"]) == 0
    scatter_rows = (ws / "reports" / "scatter.csv").read_text().splitlines()
    assert scatter_rows[0] == "Q,x"
    for row in scatter_rows[1:]:
        q, x = row.split(",")
        assert float(x) <= float(q)

    assert main(["report", "c-eq-nw", "--workspace", str(ws), "--config", str(cfg),
                 "--year", "2007", "--bins", "0,10,100"]) == 0
    cn_rows = (ws / "reports" / "c-eq-nw.csv").read_text().splitlines()
    assert cn_rows[0] == "q_lo,q_hi,scholars,degenerate,ratio"


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_report_out_exits_2(tmp_path, capsys, where):
    """``--out`` in a missing directory, or naming a directory, gives one
    error line that names the path and exit 2, and leaves no temp file."""
    ws = _ran_workspace(tmp_path)
    out = tmp_path / "nope" / "x.csv" if where == "missing-dir" else tmp_path / "out"
    if where == "a-dir":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["report", "distance-histogram", "--workspace", str(ws),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_pipeline_states_match_index_records(tmp_path):
    """The incremental run and the one-shot snapshot agree exactly."""
    rng = random.Random(61)
    lines = random_corpus_lines(rng, 200, 30, 1998, 2006)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    cfg = Config(exact_distances=True)
    ws = Workspace(tmp_path / "ws")
    store = parse_records(lines, cfg)
    ws.write_corpus(store, cfg)
    run_pipeline(ws, cfg)
    states = ws.read_states(2006, store, cfg)
    assert ws.read_states(2006, store, Config()) is None  # another config
    records = build_index_records(store, report_ledgers(ws, store, cfg, 2006), 2006, cfg)
    by_label = {r.scholar: r for r in records}
    for author, scaled in states.items():
        label = store.author_labels[author]
        assert by_label[label].x == Fraction(scaled, 6)
    for record in records:
        scaled = states.get(store.author_index[record.scholar], 0)
        assert record.x == Fraction(scaled, 6)


def test_run_pauses_the_collector_only_while_it_runs(tmp_path, monkeypatch):
    """``run`` keeps the cyclic collector paused while it computes, and
    enables it again when it returns or fails."""
    lines = random_corpus_lines(random.Random(71), 80, 15, 2000, 2004)
    cfg = Config()
    ws = Workspace(tmp_path / "ws")
    ws.write_corpus(parse_records(lines, cfg), cfg)
    assert gc.isenabled()
    enabled = []
    year_ledger = pipeline_module.year_ledger

    def spy(store, year, *args):
        enabled.append(gc.isenabled())
        if year == 2003:
            raise KeyboardInterrupt
        return year_ledger(store, year, *args)

    monkeypatch.setattr(pipeline_module, "year_ledger", spy)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(ws, cfg)
    assert gc.isenabled()
    run_pipeline(ws, cfg, (2000, 2002))  # resumed: every year complete, nothing loaded
    assert gc.isenabled()
    monkeypatch.setattr(pipeline_module, "year_ledger", year_ledger)
    assert run_pipeline(ws, cfg).years_processed == [2003, 2004]
    assert gc.isenabled()
    assert enabled == [False] * 4


@pytest.mark.parametrize("cfg", [Config(window_length=2), Config(exact_distances=True)],
                         ids=["capped-window-2", "exact"])
def test_run_ledgers_match_fresh_windows(tmp_path, cfg):
    """``run`` slides a window through every year, those without citing
    papers too: each ledger it writes, in one run and in a run resumed
    after such a year, equals the year's batch on a fresh window."""
    records = [json.loads(line) for line in
               random_corpus_lines(random.Random(29), 160, 80, 2000, 2007)]
    for record in records:
        if record["year"] == 2003:
            record["references"] = []
    lines = [json.dumps(record) for record in records]
    store = parse_records(lines, cfg)
    assert store.papers_in_year(2003)
    for name, ranges in (("whole", [None]), ("resumed", [(2000, 2003), None])):
        ws = Workspace(tmp_path / name)
        ws.write_corpus(store, cfg)
        for year_range in ranges:
            run_pipeline(ws, cfg, year_range)
        assert ws.completed_years() == list(range(2000, 2008))
        for year in ws.completed_years():
            fresh = batch_year_distances(store, year, cfg,
                                         build_window(store, year, cfg.window_length))
            ledger = ws.read_ledger(year, store, cfg)
            assert (ledger.events, ledger.scholars) == (fresh.events, fresh.scholars)
        assert ws.read_ledger(2003, store, cfg).events == {}


def tree_digest(root, subdirs):
    """sha256 over the relative paths and bytes of every file in ``subdirs``."""
    h = hashlib.sha256()
    for sub in subdirs:
        for name, data in tree_bytes(root / sub).items():
            h.update(f"{sub}/{name}".encode() + b"\0" + data)
    return h.hexdigest()


# Digests of ledgers/, states/ (the one x snapshot, after 2005) and
# reports/ (the distance-histogram report) for the corpus below, pinned
# so that a change to the engine is shown to leave every artifact
# byte-identical.
PINNED_ARTIFACT_DIGESTS = {
    False: "88b22f933ad88e891ddf37f9f042cc9d8b3d2408ea24a2dd32978fbe9cd5d315",
    True: "4411ba415dde61529a60d064eff2ca497749e8d493e6975eb91359e3d170ce34",
}


def test_jobs_parallel_matches_serial(tmp_path):
    rng = random.Random(67)
    lines = random_corpus_lines(rng, 200, 30, 2000, 2005)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    for exact, pinned in PINNED_ARTIFACT_DIGESTS.items():
        cfg = str(write_config(tmp_path, exact_distances=exact))
        ws1 = tmp_path / f"ws1-{exact}"
        ws2 = tmp_path / f"ws2-{exact}"
        main(["ingest", str(src), "--workspace", str(ws1), "--config", cfg])
        main(["ingest", str(src), "--workspace", str(ws2), "--config", cfg])
        assert main(["run", "--workspace", str(ws1), "--config", cfg, "--jobs", "1"]) == 0
        assert main(["run", "--workspace", str(ws2), "--config", cfg, "--jobs", "3"]) == 0
        assert tree_bytes(ws1 / "ledgers") == tree_bytes(ws2 / "ledgers")
        assert tree_bytes(ws1 / "states") == tree_bytes(ws2 / "states")
        assert main(["report", "distance-histogram", "--workspace", str(ws1),
                     "--config", cfg]) == 0
        assert tree_digest(ws1, ("ledgers", "states", "reports")) == pinned


def _jobs_corpus(tmp_path):
    """The corpus of ``test_jobs_parallel_matches_serial``, 2000-2005."""
    lines = random_corpus_lines(random.Random(67), 200, 30, 2000, 2005)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    return src


class _Cpus:
    """Stands in for the host's CPUs: ``os.sched_getaffinity`` returns
    ``cpus`` and ``os.sched_setaffinity`` records its mask and changes
    nothing; ``os.fork`` counts the calls made in this process."""

    def __init__(self, monkeypatch, cpus):
        self.cpus, self.forks, self.masks, self.asked = set(cpus), 0, [], 0
        real_fork = os.fork

        def fork():
            self.forks += 1
            return real_fork()

        def getaffinity(pid):
            self.asked += 1
            return set(self.cpus)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", getaffinity)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: self.masks.append(set(mask)))


def test_jobs_fork_one_worker_per_cpu_and_year(tmp_path, monkeypatch):
    """``run --jobs N`` forks min(N, CPUs of its affinity set, years to
    compute) - 1 workers, pins itself to the first CPU for its own block
    and restores its affinity after it; ``--jobs 1`` forks nothing and
    asks for no affinity.  Every run, a resume of two non-adjacent years
    too, writes what ``--jobs 1`` writes."""
    src = _jobs_corpus(tmp_path)
    host = _Cpus(monkeypatch, {0, 1})

    def run(name, jobs, *options, cpus=(0, 1)):
        host.cpus, host.forks, host.masks, host.asked = set(cpus), 0, [], 0
        ws = tmp_path / name
        if not ws.exists():
            assert main(["ingest", str(src), "--workspace", str(ws)]) == 0
        assert main(["run", "--workspace", str(ws), "--jobs", jobs, *options]) == 0
        return ws

    serial = run("serial", "1")
    assert (host.forks, host.asked, host.masks) == (0, 0, [])
    expected = {sub: tree_bytes(serial / sub) for sub in ("ledgers", "states")}
    assert len(expected["ledgers"]) == 6

    run("one-cpu", "3", cpus=(0,))
    assert (host.forks, host.masks) == (0, [])
    run("two-cpus", "3")
    assert (host.forks, host.masks) == (1, [{0}, {0, 1}])
    run("two-years", "3", "--years", "2001:2002", cpus=(0, 1, 2))
    assert (host.forks, host.masks) == (1, [{0}, {0, 1, 2}])
    for name in ("one-cpu", "two-cpus"):
        assert {sub: tree_bytes(tmp_path / name / sub) for sub in expected} == expected
    assert tree_bytes(tmp_path / "two-years" / "ledgers") == {
        name: expected["ledgers"][name] for name in ("2001.jsonl", "2002.jsonl")}

    gaps = tmp_path / "two-cpus"
    (gaps / "ledgers" / "2001.jsonl").unlink()
    (gaps / "ledgers" / "2004.jsonl").unlink()
    run("two-cpus", "2")
    assert host.forks == 1
    assert {sub: tree_bytes(gaps / sub) for sub in expected} == expected


@pytest.mark.parametrize("weights,parts,blocks", [
    ([1, 1, 1, 1, 1, 1], 2, [[0, 1, 2], [3, 4, 5]]),
    ([9, 1, 1, 1, 1, 1], 2, [[0], [1, 2, 3, 4, 5]]),
    ([1, 1, 1, 1, 1, 9], 3, [[0, 1, 2, 3], [4], [5]]),
    ([0, 0, 0], 3, [[0], [1], [2]]),
    ([0, 0, 0, 0], 2, [[0], [1, 2, 3]]),
])
def test_year_blocks_balance_their_weights(weights, parts, blocks):
    """Contiguous, non-empty blocks, cut where the running weight comes
    closest to each share of the total (the earlier cut on a tie)."""
    assert split_blocks(list(range(len(weights))), weights, parts) == blocks


def _assert_no_worker_or_temp_file_left(ws):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not [p.name for p in ws.rglob("*.tmp")]


def test_failed_worker_fails_the_run_after_reaping_it(tmp_path, monkeypatch, capsys):
    """A worker whose ledger write fails ends the run with the worker's
    error once every worker is reaped: no process and no temp file is
    left, every ledger written is whole and a ``--jobs 1`` resume then
    writes the pinned artifacts."""
    src = _jobs_corpus(tmp_path)
    cfg = str(write_config(tmp_path, exact_distances=False))
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws), "--config", cfg]) == 0
    _Cpus(monkeypatch, {0, 1})
    write_ledger = Workspace.write_ledger

    def failing_write(self, ledger, store, config_hash):
        if ledger.year != 2005:  # the last year is always in the worker's block
            return write_ledger(self, ledger, store, config_hash)

        def writer(fp):
            fp.write("partial")
            raise WorkspaceError("cannot write the year-2005 ledger")

        _atomic_write(self.ledger_path(ledger.year), writer)

    monkeypatch.setattr(Workspace, "write_ledger", failing_write)
    capsys.readouterr()
    assert main(["run", "--workspace", str(ws), "--config", cfg, "--jobs", "2"]) == 3
    assert "error: cannot write the year-2005 ledger\n" in capsys.readouterr().err
    _assert_no_worker_or_temp_file_left(ws)
    written = Workspace(ws).completed_years()
    assert 2000 in written and 2005 not in written
    assert all(Workspace(ws).year_complete(year, Config(exact_distances=False))
               for year in written)
    assert not list((ws / "states").iterdir())

    monkeypatch.undo()
    assert main(["run", "--workspace", str(ws), "--config", cfg, "--jobs", "1"]) == 0
    assert main(["report", "distance-histogram", "--workspace", str(ws), "--config", cfg]) == 0
    assert tree_digest(ws, ("ledgers", "states", "reports")) == PINNED_ARTIFACT_DIGESTS[False]


def test_killed_worker_fails_the_run(tmp_path, monkeypatch):
    """A worker that dies without a message fails the run with an error
    that names its years and its exit status."""
    ws = tmp_path / "ws"
    assert main(["ingest", str(_jobs_corpus(tmp_path)), "--workspace", str(ws)]) == 0
    _Cpus(monkeypatch, {0, 1})
    write_ledger = Workspace.write_ledger

    def killing_write(self, ledger, store, config_hash):
        if ledger.year == 2005:  # in the worker's block
            os.kill(os.getpid(), signal.SIGKILL)
        return write_ledger(self, ledger, store, config_hash)

    monkeypatch.setattr(Workspace, "write_ledger", killing_write)
    with pytest.raises(RuntimeError, match=r"years 200\d-2005 ended without a result "
                                           r"\(exit status -9\)"):
        main(["run", "--workspace", str(ws), "--jobs", "2"])
    _assert_no_worker_or_temp_file_left(ws)


def test_interrupted_run_stops_its_workers(tmp_path, monkeypatch):
    """An interrupt in the run's own block sends its worker SIGTERM, which
    the worker turns into SystemExit mid-write, so its temp file is
    removed; the run re-raises the interrupt once the worker is reaped."""
    ws = tmp_path / "ws"
    assert main(["ingest", str(_jobs_corpus(tmp_path)), "--workspace", str(ws)]) == 0
    _Cpus(monkeypatch, {0, 1})
    parent = os.getpid()

    def write_ledger(self, ledger, store, config_hash):
        if os.getpid() != parent:  # the worker hangs in its first write

            def writer(fp):
                fp.write("partial")
                time.sleep(60)

            _atomic_write(self.ledger_path(ledger.year), writer)
        deadline = time.monotonic() + 30
        while not list(self.ledger_dir.glob("*.tmp")) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert list(self.ledger_dir.glob("*.tmp"))
        raise KeyboardInterrupt

    monkeypatch.setattr(Workspace, "write_ledger", write_ledger)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--workspace", str(ws), "--jobs", "2"])
    assert time.monotonic() - started < 30
    _assert_no_worker_or_temp_file_left(ws)
    assert not list((ws / "ledgers").iterdir())


@pytest.mark.parametrize("jobs,message", [("0", "must be >= 1, got 0"),
                                          ("-3", "must be >= 1, got -3"),
                                          ("x", "expected an integer, got 'x'")])
def test_jobs_below_1_is_a_usage_error(tmp_path, capsys, jobs, message):
    assert main(["run", "--workspace", str(tmp_path), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: citedist run") and f"argument --jobs: {message}" in err


def test_report_years_default_to_report_config_span(tmp_path, capsys):
    """A config that narrows the ingested span sets the default report
    year and heatmap range, as it sets the years that ``run`` processes."""
    rng = random.Random(73)
    lines = random_corpus_lines(rng, 120, 20, 2000, 2005)
    assert {json.loads(line)["year"] for line in lines} >= {2000, 2005}
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    (tmp_path / "ingest").mkdir()
    (tmp_path / "narrow").mkdir()
    ingest_cfg = str(write_config(tmp_path / "ingest", exact_distances=True))
    cfg = str(write_config(tmp_path / "narrow", exact_distances=True, year_end=2003))
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws), "--config", ingest_cfg]) == 0
    assert main(["run", "--workspace", str(ws), "--config", cfg]) == 0
    assert Workspace(ws).completed_years() == [2000, 2001, 2002, 2003]
    capsys.readouterr()

    def params(name):
        assert main(["report", name, "--workspace", str(ws), "--config", cfg]) == 0
        manifest = ws / "reports" / f"{name}.manifest.json"
        return json.loads(manifest.read_text())["params"]

    assert params("index-table")["year"] == 2003
    assert params("network-stats")["year"] == 2003
    assert params("edges")["year"] == 2003
    assert params("distance-histogram")["years"] == [2000, 2003]
    heatmap = params("heatmap")
    assert heatmap["years"] == [2000, 2003] and heatmap["net_year"] == 2003
    assert "no citations" not in capsys.readouterr().err


def test_reports_read_only_their_config_years(tmp_path, capsys):
    """Ledgers that a run under another config left before ``year_start``
    are not read: the index and histogram reports of the narrowed config
    succeed and equal those of a workspace that only ever ran it."""
    rng = random.Random(83)
    lines = random_corpus_lines(rng, 120, 20, 2000, 2005)
    assert {json.loads(line)["year"] for line in lines} >= {2000, 2005}
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    (tmp_path / "wide").mkdir()
    (tmp_path / "narrow").mkdir()
    wide = str(write_config(tmp_path / "wide", exact_distances=True))
    narrow = str(write_config(tmp_path / "narrow", exact_distances=True, year_start=2002))
    ws, fresh = tmp_path / "ws", tmp_path / "fresh"
    for root, configs in ((ws, (wide, narrow)), (fresh, (narrow,))):
        assert main(["ingest", str(src), "--workspace", str(root), "--config", wide]) == 0
        for cfg in configs:
            assert main(["run", "--workspace", str(root), "--config", cfg]) == 0
    assert Workspace(ws).completed_years() == list(range(2000, 2006))
    capsys.readouterr()

    for root in (ws, fresh):
        assert main(["report", "index-table", "--workspace", str(root),
                     "--config", narrow]) == 0
        assert main(["report", "distance-histogram", "--workspace", str(root),
                     "--config", narrow, "--years", "2002:2005"]) == 0
    assert tree_bytes(ws / "reports") == tree_bytes(fresh / "reports")
    assert "no citations" not in capsys.readouterr().err

    assert main(["report", "distance-histogram", "--workspace", str(ws),
                 "--config", narrow]) == 0
    manifest = ws / "reports" / "distance-histogram.manifest.json"
    assert json.loads(manifest.read_text())["params"]["years"] == [2002, 2005]
    assert main(["report", "distance-histogram", "--workspace", str(ws),
                 "--config", narrow, "--years", "2002:2006"]) == 0
    assert "year 2006: no citations; omitted" in capsys.readouterr().err


def test_strict_window_skips_leading_years(tmp_path):
    lines = [
        record_line("p0", 2000, ["a"]),
        record_line("p1", 2001, ["b"], ["p0"]),
        record_line("p2", 2005, ["c"], ["p0"]),
    ]
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, strict_window=True)
    ws = tmp_path / "ws"
    main(["ingest", str(src), "--workspace", str(ws), "--config", str(cfg)])
    assert main(["run", "--workspace", str(ws), "--config", str(cfg)]) == 0
    workspace = Workspace(ws)
    # first full window ends at 2004: years 2000-2003 are not processed
    assert not workspace.ledger_path(2001).exists()
    assert workspace.ledger_path(2004).exists()
    assert workspace.ledger_path(2005).exists()
