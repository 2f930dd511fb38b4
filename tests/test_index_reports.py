"""Index reports: the one-pass ledger fold against per-scholar snapshots,
its errors, its memory profile, and how c is rendered."""

import random
import re
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from citedist import cli as cli_module
from citedist import pipeline as pipeline_module
from citedist.cli import main
from citedist.config import Config
from citedist.corpus import parse_records
from citedist.errors import IncompleteStateError
from citedist.indices import WeightConfig, scholar_snapshot, x_from_slices
from citedist.pipeline import build_index_records, load_series, report_ledgers, run_pipeline
from citedist.workspace import Workspace

from synthcorpus import fraction_c_oracle, random_corpus_lines, table1_lines

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


def reference_records(store, series, year, wcfg):
    """One ``scholar_snapshot`` per scholar credited through ``year``."""
    credited = set()
    for y in series.years:
        if y <= year:
            credited.update(series.ledger(y).scholars)
    paper_counts = store.paper_citation_counts(year)
    records = [
        scholar_snapshot(s, year, series, [paper_counts[p] for p in store.author_papers[s]],
                         wcfg, label=store.author_labels[s])
        for s in credited
    ]
    return sorted(records, key=lambda r: r.scholar)


@pytest.mark.parametrize("seed", [3, 71])
def test_fold_matches_per_scholar_snapshots(tmp_path, seed):
    """Every (n, alpha) and report year: the fold over a stream of
    ledgers equals the per-scholar snapshots over the whole series, down
    to the type of c, and x and c equal the slice-wise and Fraction
    formulas."""
    rng = random.Random(seed)
    lines = random_corpus_lines(rng, 160, 25, 1998, 2005)
    cfg = Config(exact_distances=True)
    ws, store = make_workspace(tmp_path / "ws", lines, cfg)
    series = load_series(ws, store, cfg, 2005)
    checked = 0
    for year in (2001, 2005):
        for n in (0, 1, 6):
            for alpha in (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)):
                run_cfg = replace(cfg, n=n, alpha=alpha)
                wcfg = WeightConfig(n=n, alpha=alpha)
                expected = reference_records(store, series, year, wcfg)
                streamed = build_index_records(store, report_ledgers(ws, store, cfg, year),
                                               year, run_cfg)
                from_series = build_index_records(store, series, year, run_cfg)
                assert streamed == from_series == expected
                assert expected, "the corpus credits no scholar"
                for got, ref in zip(streamed, expected):
                    assert type(got.c) is type(ref.c)
                    author = store.author_index[got.scholar]
                    pooled = series.pooled_tally(author, year)
                    oracle_c = fraction_c_oracle(pooled.finite, pooled.infinite, alpha)
                    assert got.c == oracle_c and type(got.c) is type(oracle_c)
                    assert got.x == x_from_slices(series.year_slices(author, year), n)
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
    """Each CLI index report reads the ledgers as a stream: when it reads
    a year, no ledger it read before is still alive."""
    lines = random_corpus_lines(random.Random(9), 160, 25, 2000, 2006)
    cfg = Config(exact_distances=True)
    ws, _ = make_workspace(tmp_path / "ws", lines, cfg)
    (tmp_path / "engine.cfg").write_text("exact_distances = true\n")

    read = []
    original = Workspace.read_ledger

    def tracking_read(self, year, store, config_hash):
        alive = [ref().year for ref in read if ref() is not None]
        assert not alive, f"ledgers {alive} still held while year {year} is read"
        ledger = original(self, year, store, config_hash)
        read.append(weakref.ref(ledger))
        return ledger

    def no_series(*args, **kwargs):
        raise AssertionError("index reports must not load the whole ledger series")

    monkeypatch.setattr(Workspace, "read_ledger", tracking_read)
    monkeypatch.setattr(pipeline_module, "load_series", no_series)
    monkeypatch.setattr(cli_module, "load_series", no_series, raising=False)
    for report in INDEX_REPORTS:
        read.clear()
        assert main(["report", *report, "--workspace", str(ws.root),
                     "--config", str(tmp_path / "engine.cfg")]) == 0
        assert len(read) == 7


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
