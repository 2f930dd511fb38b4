"""The per-year index snapshot ``indices/<year>.jsonl``: the reports it
serves against recomputed ones, what a hit reads, and when the snapshot
is stale, foreign or damaged."""

import hashlib
import json
import random
import re
import shutil

import pytest

from citedist import corpus as corpus_module
from citedist import workspace as workspace_module
from citedist.cli import main
from citedist.codec import decode_indices, indices_artifact, json_line, split_header
from citedist.config import load_config
from citedist.pipeline import build_index_records, index_records, report_ledgers
from citedist.workspace import Workspace

from synthcorpus import random_corpus_lines, record_line
from test_benchmark_hooks import load_perfbench

INDEX_REPORTS = (
    ["index-table"],
    ["rank", "--index", "c"],
    ["c-eq-nw", "--bins", "0,5,20"],
    ["scatter", "--q-max", "50", "--size", "5"],
    ["closeness", "--q-min", "0", "--q-max", "1000", "--size", "4"],
)


def ran_workspace(tmp_path, seed=9, **config):
    """Ingest and run a random 2000-2006 corpus under an exact config
    with ``config``'s keys; returns the workspace and the config file."""
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(random_corpus_lines(random.Random(seed), 160, 25, 2000, 2006)) + "\n")
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"exact_distances": "true", **config}.items()))
    ws = tmp_path / "ws"
    assert main(["ingest", str(src), "--workspace", str(ws), "--config", str(cfg)]) == 0
    assert main(["run", "--workspace", str(ws), "--config", str(cfg)]) == 0
    return Workspace(ws), cfg


def report_output(ws, cfg, year, report):
    """(exit code, CSV bytes, manifest bytes) of one index report."""
    shutil.rmtree(ws.report_dir, ignore_errors=True)
    code = main(["report", *report, "--workspace", str(ws.root), "--config", str(cfg),
                 "--year", str(year)])
    if code:
        return code, None, None
    csv = ws.report_dir / f"{report[0]}.csv"
    return code, csv.read_bytes(), csv.with_suffix(".manifest.json").read_bytes()


def report_outputs(ws, cfg, year):
    return [report_output(ws, cfg, year, report) for report in INDEX_REPORTS]


@pytest.mark.parametrize("alpha", ["1", "2/3", "3/2"])
@pytest.mark.parametrize("n", [0, 1, 6])
def test_snapshot_serves_the_reports_it_replaces(tmp_path, alpha, n):
    """At the first, a middle and the last year, every index report
    writes the same bytes whether it computes the records or reads them
    from the snapshot, and the snapshot's records equal
    ``build_index_records`` down to the type of c."""
    ws, cfg_path = ran_workspace(tmp_path, alpha=alpha, n=n)
    cfg = load_config(cfg_path)
    store = ws.load_store(cfg)
    written = 0
    for year in (2000, 2003, 2006):
        direct = build_index_records(store, report_ledgers(ws, store, cfg, year), year, cfg)
        computed = []
        for report in INDEX_REPORTS:  # each one computes its records
            shutil.rmtree(ws.index_dir, ignore_errors=True)
            computed.append(report_output(ws, cfg_path, year, report))
        assert ws.index_path(year).is_file()
        assert report_outputs(ws, cfg_path, year) == computed
        read = index_records(ws, cfg, year)
        assert read == direct
        assert [type(r.c) for r in read] == [type(r.c) for r in direct]
        written += sum(code == 0 for code, _, _ in computed)
    assert written >= 12  # the early years may hold no cohort of 4


def test_snapshot_hit_decodes_no_ledger_and_no_corpus(tmp_path, monkeypatch):
    ws, cfg = ran_workspace(tmp_path)
    expected = report_outputs(ws, cfg, 2006)

    def forbidden(*args, **kwargs):
        raise AssertionError("a snapshot hit decoded a ledger or the corpus")

    # Workspace.load_store imports parse_snapshot from corpus when it runs.
    monkeypatch.setattr(corpus_module, "parse_snapshot", forbidden)
    monkeypatch.setattr(workspace_module, "decode_ledger", forbidden)
    assert report_outputs(ws, cfg, 2006) == expected


def compact(line):
    return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_snapshot_codec_round_trips_c_types(tmp_path):
    """An int c stays an int and a Fraction stays a Fraction, even one
    whose denominator is 1.  Every artifact line, of the encoded snapshot
    and of the ledgers, states and index snapshot in the workspace after
    a run and an index report, is written in the compact style."""
    ws, cfg_path = ran_workspace(tmp_path, alpha="2/3")
    cfg = load_config(cfg_path)
    records = index_records(ws, cfg, 2006)
    types = {type(r.c).__name__ for r in records}
    assert types == {"int", "Fraction"}
    assert any(type(r.c).__name__ == "Fraction" and r.c.denominator == 1 for r in records)
    head, body = indices_artifact(records, 2006, 6, "cfg", ["a", "b"])
    text = json_line(head) + body
    parsed, start = split_header(text)
    decoded = decode_indices(text[start:], cfg.alpha, ["a", "b"], parsed)
    assert decoded == records
    assert decode_indices(text[start:], cfg.alpha, ["a"], parsed) is None
    assert [type(r.c) for r in decoded] == [type(r.c) for r in records]
    for line in text.splitlines():
        assert line == compact(line)
    paths = [p for d in (ws.ledger_dir, ws.state_dir, ws.index_dir) for p in d.glob("*.jsonl")]
    assert {p.parent.name for p in paths} == {"ledgers", "states", "indices"}
    for path in paths:
        for line in path.read_text().splitlines():
            assert line == compact(line), path


def test_snapshot_of_other_ledgers_is_rebuilt(tmp_path):
    ws, cfg_path = ran_workspace(tmp_path)
    expected = report_outputs(ws, cfg_path, 2006)
    path = ws.index_path(2006)
    good = path.read_bytes()
    head, rest = good.split(b"\n", 1)
    obj = json.loads(head)
    obj["ledgers"][3] = "0" * 64
    path.write_bytes(json.dumps(obj, sort_keys=True).encode() + b"\n" + rest)
    assert report_outputs(ws, cfg_path, 2006) == expected
    assert path.read_bytes() == good


def test_snapshot_does_not_hide_a_deleted_year(tmp_path, capsys, monkeypatch):
    """A middle year's ledger deleted: the reports fail with the gap
    error as without a snapshot, before they load the store; once ``run``
    restores the year, they serve the same bytes again."""
    ws, cfg = ran_workspace(tmp_path)
    expected = report_outputs(ws, cfg, 2006)
    ws.ledger_path(2003).unlink()
    capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("a report loaded the store of a workspace with a gap")

    with monkeypatch.context() as patched:
        patched.setattr(Workspace, "load_store", forbidden)
        codes = [code for code, _, _ in report_outputs(ws, cfg, 2006)]
    assert codes == [3] * len(INDEX_REPORTS)
    assert "missing ledger years: [2003]" in capsys.readouterr().err
    assert main(["run", "--workspace", str(ws.root), "--config", str(cfg)]) == 0
    assert report_outputs(ws, cfg, 2006) == expected


def test_snapshot_of_another_config_reads_as_absent(tmp_path):
    """Exact ledgers of two configs can share their record digests; the
    snapshot of one config never answers for the other."""
    ws, cfg_one = ran_workspace(tmp_path)
    report_outputs(ws, cfg_one, 2006)
    digests_one = json.loads(ws.index_path(2006).read_bytes().split(b"\n", 1)[0])["ledgers"]
    cfg_other = tmp_path / "other.cfg"
    cfg_other.write_text("exact_distances = true\nalpha = 2/3\n")
    assert main(["run", "--workspace", str(ws.root), "--config", str(cfg_other)]) == 0
    other = load_config(cfg_other)
    records = index_records(ws, other, 2006)
    head = json.loads(ws.index_path(2006).read_bytes().split(b"\n", 1)[0])
    assert head["config"] == other.config_hash() and head["ledgers"] == digests_one
    store = ws.load_store(other)
    assert records == build_index_records(
        store, report_ledgers(ws, store, other, 2006), 2006, other)


def test_reingested_corpus_exits_3_with_a_snapshot(tmp_path, capsys):
    ws, cfg = ran_workspace(tmp_path)
    report_outputs(ws, cfg, 2006)
    other = tmp_path / "other.jsonl"
    other.write_text(record_line("q0", 2000, ["zed"]) + "\n"
                     + record_line("q1", 2006, ["yan"], ["q0"]) + "\n")
    assert main(["ingest", str(other), "--workspace", str(ws.root), "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert [code for code, _, _ in report_outputs(ws, cfg, 2006)] == [3] * len(INDEX_REPORTS)
    assert re.search(r"error: cannot read \S*ledgers/2000\.jsonl: it was not written for "
                     r"the ingested corpus; delete \S*ledgers, \S*states and \S*indices",
                     capsys.readouterr().err)


def _truncated(ws):
    path = ws.index_path(2006)
    path.write_bytes(path.read_bytes()[:-5])


def _digit(ws):
    path = ws.index_path(2006)
    text = path.read_text()
    changed = re.sub(r'"q":(\d)', lambda m: f'"q":{int(m[1]) % 9 + 1}', text, count=1)
    assert changed != text
    path.write_text(changed)


def _empty(ws):
    ws.index_path(2006).write_bytes(b"")


def _of_another_corpus(ws):
    """The snapshot of an earlier ingest of another corpus, after the
    ledgers and states were deleted and run again."""
    src = ws.root.with_name("c.jsonl")
    papers = [json.loads(line) for line in src.read_text().splitlines()]
    cited = next(p for p in reversed(papers) if p["references"])
    cited["references"].pop()
    src.write_text("".join(record_line(p["id"], p["year"], p["authors"], p["references"]) + "\n"
                           for p in papers))
    cfg = ["--config", str(ws.root.with_name("engine.cfg"))]
    assert main(["ingest", str(src), "--workspace", str(ws.root), *cfg]) == 0
    shutil.rmtree(ws.ledger_dir)
    shutil.rmtree(ws.state_dir)
    assert main(["run", "--workspace", str(ws.root), *cfg]) == 0


@pytest.mark.parametrize("damage", [_truncated, _digit, _empty, _of_another_corpus],
                         ids=["truncated", "digit", "empty", "another-corpus"])
def test_damaged_snapshot_exits_3_and_names_it(tmp_path, capsys, damage):
    ws, cfg = ran_workspace(tmp_path)
    report_outputs(ws, cfg, 2006)
    damage(ws)
    capsys.readouterr()
    argv = ["report", "index-table", "--workspace", str(ws.root), "--config", str(cfg)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"error: cannot read {ws.index_path(2006)}" in err
    assert f"deleting {ws.index_path(2006)} is safe" in err
    ws.index_path(2006).unlink()
    assert main(argv) == 0


def respace(ws):
    """Write every ledger, x snapshot and index snapshot of ``ws`` again in
    the spaced style of ``json.dumps(obj, sort_keys=True)`` that older
    versions wrote, each header with the digest of its new record lines,
    and each index snapshot listing the new digests of its ledgers."""
    renamed = {}
    for directory in (ws.ledger_dir, ws.state_dir, ws.index_dir):  # ledgers first
        for path in sorted(directory.glob("*.jsonl")):
            head, *records = map(json.loads, path.read_text().splitlines())
            body = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in records).encode()
            digest = hashlib.sha256(body).hexdigest()
            renamed[head["records_sha256"]] = digest
            head["records_sha256"] = digest
            if "ledgers" in head:
                head["ledgers"] = [renamed[d] for d in head["ledgers"]]
            path.write_bytes(json.dumps(head, sort_keys=True).encode() + b"\n" + body)


def test_workspace_of_spaced_artifacts_stays_valid(tmp_path, capsys):
    """A workspace whose artifacts an older version wrote in the spaced
    style resumes with every year complete and serves the same reports; a
    deleted ledger is computed again, alone and in the compact style, and
    leaves every x of the snapshot as it was."""
    ws, cfg = ran_workspace(tmp_path)
    common = ["--workspace", str(ws.root), "--config", str(cfg)]
    histogram = ["report", "distance-histogram", *common]
    expected = report_outputs(ws, cfg, 2006)
    assert main(histogram) == 0
    expected_histogram = (ws.report_dir / "distance-histogram.csv").read_bytes()
    state = ws.state_path(2006)
    xs = [json.loads(line) for line in state.read_text().splitlines()[1:]]
    respace(ws)
    artifacts = [p for d in (ws.ledger_dir, ws.state_dir, ws.index_dir) for p in d.glob("*.jsonl")]
    spaced = {p: p.read_bytes() for p in artifacts}
    assert all(b'": ' in data for data in spaced.values())

    capsys.readouterr()
    assert main(["run", *common]) == 0
    assert "processed 0 years, skipped 7 already complete" in capsys.readouterr().out
    assert report_outputs(ws, cfg, 2006) == expected
    assert main(histogram) == 0
    assert (ws.report_dir / "distance-histogram.csv").read_bytes() == expected_histogram
    assert {p: p.read_bytes() for p in artifacts} == spaced  # the index snapshot was served
    checks = load_perfbench("checks")
    ops = checks.Ops()
    checks.check_x_states(ops, ws.root, 6)
    assert (ops.attempted, ops.failed) == (1, 0), ops.failures

    ws.ledger_path(2003).unlink()
    assert main(["run", *common]) == 0
    assert "processed 1 years, skipped 6 already complete" in capsys.readouterr().out
    for path in artifacts:
        if path.parent == ws.ledger_dir and path.stem != "2003":
            assert path.read_bytes() == spaced[path]
    for path in (ws.ledger_path(2003), state):
        lines = path.read_text().splitlines()
        assert [compact(line) for line in lines] == lines
    assert [json.loads(line) for line in state.read_text().splitlines()[1:]] == xs
    assert report_outputs(ws, cfg, 2006) == expected
