"""Index reports: the one-pass ledger fold against the end-to-end oracle,
its errors, its memory profile, and how c is rendered."""

import random
import re
import shutil
import weakref
from fractions import Fraction

import pytest

from citedist.cli import main
from citedist.config import Config
from citedist.corpus import parse_records
from citedist.distances import INF_CODE, pool_into
from citedist.errors import IncompleteStateError
from citedist.indices import IndexRecord, x_from_slices
from citedist.pipeline import build_index_records, report_ledgers, run_pipeline
from citedist.workspace import Workspace

from synthcorpus import (fraction_c_oracle, oracle_index_run, random_corpus_lines, record_line,
                         table1_lines)

INDEX_REPORTS = (
    ["index-table"],
    ["rank", "--index", "c"],
    ["c-eq-nw", "--bins", "0,5,20"],
    ["scatter", "--q-max", "50", "--size", "5"],
    ["closeness", "--q-min", "0", "--q-max", "1000", "--size", "4"],
)


def make_workspace(root, lines, cfg):
    ws = Workspace(root)
    store = parse_records(lines, cfg)
    ws.write_corpus(store, cfg)
    run_pipeline(ws, cfg)
    return ws, store


def test_h_and_g_count_only_papers_published_by_the_report_year(tmp_path):
    """Scholar a's one paper of 2000 is cited 4 times in 2001, and a
    writes a second paper in 2003: at 2001 a has one paper, so g = 1
    (the later paper would make it 2), and at 2003 g = 2."""
    lines = [record_line("p0", 2000, ["a"]),
             *(record_line(f"c{i}", 2001, [f"b{i}"], ["p0"]) for i in range(4)),
             record_line("p1", 2003, ["a"])]
    cfg = Config(exact_distances=True)
    ws, store = make_workspace(tmp_path / "ws", lines, cfg)
    for year, g in ((2001, 1), (2003, 2)):
        records = build_index_records(store, report_ledgers(ws, store, cfg, year), year, cfg)
        assert [(r.scholar, r.q, r.h, r.g) for r in records] == [("a", 4, 1, g)]
        assert oracle_index_run(lines, cfg, year)[0].splitlines()[1].split(",")[4] == str(g)


@pytest.mark.parametrize("seed", [3, 71])
def test_fold_matches_per_scholar_snapshots(tmp_path, seed):
    """Every (n, alpha) and report year: the fold over a stream of
    ledgers prints the end-to-end oracle's rows and equals the fold over
    the ledgers held in a list; c has the value and the type of the
    Fraction formula, and x is exactly the sum over the year slices."""
    rng = random.Random(seed)
    lines = random_corpus_lines(rng, 160, 25, 1998, 2005)
    cfg = Config(exact_distances=True)
    ws, store = make_workspace(tmp_path / "ws", lines, cfg)
    ledgers = list(report_ledgers(ws, store, cfg, 2005))
    checked = 0
    for year in (2001, 2005):
        held = [ledger for ledger in ledgers if ledger.year <= year]
        pooled = {}
        for ledger in held:
            pool_into(pooled, ledger.scholars)
        for n in (0, 1, 6):
            for alpha in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)):
                run_cfg = Config(**{**cfg._asdict(), "n": n, "alpha": alpha})
                expected_csv, _ = oracle_index_run(lines, run_cfg, year)
                streamed = build_index_records(store, report_ledgers(ws, store, cfg, year),
                                               year, run_cfg)
                assert streamed == build_index_records(store, ledgers, year, run_cfg)
                assert [IndexRecord.CSV_HEADER, *(r.csv_row() for r in streamed)] == \
                    expected_csv.splitlines()
                assert streamed, "the corpus credits no scholar"
                for got in streamed:
                    author = store.author_index[got.scholar]
                    tally = pooled[author]
                    oracle_c = fraction_c_oracle({d: c for d, c in tally.items() if d >= 0},
                                                 tally.get(INF_CODE, 0), alpha)
                    assert got.c == oracle_c and type(got.c) is type(oracle_c)
                    slices = [(ledger.year, ledger.scholars[author]) for ledger in held
                              if author in ledger.scholars]
                    assert got.x == x_from_slices(slices, n)
                    checked += 1
    assert checked > 100


def test_fold_reports_a_missing_middle_year(tmp_path, capsys):
    lines = random_corpus_lines(random.Random(5), 120, 20, 2000, 2004)
    cfg = Config(exact_distances=True)
    ws, store = make_workspace(tmp_path / "ws", lines, cfg)
    ws.ledger_path(2002).unlink()
    with pytest.raises(IncompleteStateError, match=r"missing ledger years: \[2002\]"):
        build_index_records(store, report_ledgers(ws, store, cfg, 2004), 2004, cfg)
    (tmp_path / "engine.cfg").write_text("exact_distances = true\n")
    assert main(["report", "index-table", "--workspace", str(ws.root),
                 "--config", str(tmp_path / "engine.cfg")]) == 3
    assert "missing ledger years: [2002]" in capsys.readouterr().err


def test_fold_refuses_a_capped_workspace(tmp_path, capsys):
    lines = random_corpus_lines(random.Random(5), 120, 20, 2000, 2004)
    cfg = Config(exact_distances=False)
    ws, store = make_workspace(tmp_path / "ws", lines, cfg)
    with pytest.raises(IncompleteStateError, match="index reports need exact distances"):
        build_index_records(store, report_ledgers(ws, store, cfg, 2004), 2004, cfg)
    assert main(["report", "index-table", "--workspace", str(ws.root)]) == 3
    assert "index reports need exact distances" in capsys.readouterr().err
    # A damaged later ledger is still reported first, as when every
    # ledger was read before the fold began.
    path = ws.ledger_path(2003)
    path.write_bytes(path.read_bytes() + b"\n")
    assert main(["report", "index-table", "--workspace", str(ws.root)]) == 3
    assert f"cannot read {path}: damaged" in capsys.readouterr().err


def test_fold_with_no_credited_scholar(tmp_path):
    cfg = Config(exact_distances=True)
    ws, store = make_workspace(tmp_path / "ws", table1_lines(), cfg)
    assert build_index_records(store, report_ledgers(ws, store, cfg, 2018), 2018, cfg) == []
    (tmp_path / "engine.cfg").write_text("exact_distances = true\n")
    assert main(["report", "index-table", "--workspace", str(ws.root),
                 "--config", str(tmp_path / "engine.cfg")]) == 0
    rows = (ws.root / "reports" / "index-table.csv").read_text().splitlines()
    assert rows == ["scholar,year,Q,h,g,c,N_w,x"]


def test_index_reports_hold_one_ledger_at_a_time(tmp_path, monkeypatch):
    """Each CLI index report that computes its records reads the ledgers
    as a stream: when it reads a year, no ledger it read before is still
    alive, and it reads each ledger once (no digest pass first).  One
    that finds the year's index snapshot decodes no ledger and loads no
    store."""
    lines = random_corpus_lines(random.Random(9), 160, 25, 2000, 2006)
    cfg = Config(exact_distances=True)
    ws, _ = make_workspace(tmp_path / "ws", lines, cfg)
    (tmp_path / "engine.cfg").write_text("exact_distances = true\n")

    read = []
    loads = []
    checked = []
    original = Workspace.read_ledger
    original_load = Workspace.load_store
    original_digest = Workspace.ledger_digest

    def tracking_read(self, year, store, config_hash):
        alive = [ref().year for ref in read if ref() is not None]
        assert not alive, f"ledgers {alive} still held while year {year} is read"
        ledger = original(self, year, store, config_hash)
        read.append(weakref.ref(ledger))
        return ledger

    def tracking_load(self, cfg):
        loads.append(cfg)
        return original_load(self, cfg)

    def tracking_digest(self, year, config_hash):
        checked.append(year)
        return original_digest(self, year, config_hash)

    monkeypatch.setattr(Workspace, "read_ledger", tracking_read)
    monkeypatch.setattr(Workspace, "load_store", tracking_load)
    monkeypatch.setattr(Workspace, "ledger_digest", tracking_digest)
    for report in INDEX_REPORTS:
        argv = ["report", *report, "--workspace", str(ws.root),
                "--config", str(tmp_path / "engine.cfg")]
        shutil.rmtree(ws.index_dir, ignore_errors=True)
        read.clear()
        loads.clear()
        checked.clear()
        assert main(argv) == 0
        assert len(read) == 7 and len(loads) == 1 and checked == []
        read.clear()
        loads.clear()
        assert main(argv) == 0  # reads the snapshot the first call wrote
        assert read == [] and loads == [] and len(checked) == 7


def c_cells(path, column):
    rows = path.read_text().splitlines()[1:]
    assert rows
    return [row.split(",")[column] for row in rows]


def test_c_renders_whole_or_with_two_decimals(tmp_path):
    """``index-table`` and ``rank --index c`` print a whole c as an
    integer and any other c with 2 decimals, whichever side of the
    c-index won."""
    lines = random_corpus_lines(random.Random(17), 200, 25, 2000, 2006)
    src = tmp_path / "c.jsonl"
    src.write_text("\n".join(lines) + "\n")
    shapes = {}
    for alpha in ("1", "2/3"):
        ws = tmp_path / f"ws-{alpha.replace('/', '_')}"
        config = tmp_path / f"{ws.name}.cfg"
        config.write_text(f"exact_distances = true\nalpha = {alpha}\n")
        for argv in (["ingest", str(src)], ["run"], ["report", "index-table"],
                     ["report", "rank", "--index", "c"]):
            assert main([*argv, "--workspace", str(ws), "--config", str(config)]) == 0
        table = c_cells(ws / "reports" / "index-table.csv", 5)
        ranked = c_cells(ws / "reports" / "rank.csv", 2)
        assert sorted(table) == sorted(ranked)
        for cell in table:
            assert re.fullmatch(r"\d+|\d+\.\d\d", cell), cell
            assert not re.fullmatch(r"\d+\.00", cell), cell
        shapes[alpha] = {"." in cell for cell in table}
    assert shapes["1"] == {False}
    assert shapes["2/3"] == {False, True}
