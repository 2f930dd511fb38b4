"""The CLI against the end-to-end oracle (``synthcorpus.oracle_index_run``):
``ingest``, ``run`` and ``report index-table`` in-process, compared with
the oracle's CSV bytes and with its event distances for every ledger,
exact and capped."""

import json
import math
import random
from fractions import Fraction

import pytest

from citedist.cli import main
from citedist.config import Config

from synthcorpus import TABLE1_REFERENCES, oracle_index_run, random_corpus_lines, table1_lines

# Worked by hand from the table-1 windows (window 5): 2016 p5 -> p3 has
# no path; 2017 p6 -> p1 is 2 (4-2-1) and p6 -> p5 shares author 6;
# 2018 p7 -> p1 has no path (1 and 8 left the window), p7 -> p2 shares
# author 2 and p7 -> p4 is 2 (2-4-6).
TABLE1_EVENTS = {2012: {}, 2013: {}, 2014: {}, 2015: {}, 2016: {math.inf: 1},
                 2017: {0: 1, 2: 1}, 2018: {0: 1, 2: 1, math.inf: 1}}
TABLE1_INDEX_TABLE = """\
scholar,year,Q,h,g,c,N_w,x
1,2018,3,1,1,2,1,1.33
2,2018,2,1,1,1,1,1.00
3,2018,2,1,1,1,1,1.00
4,2018,1,1,1,1,1,1.00
5,2018,2,1,1,1,0,0.33
6,2018,2,1,1,1,0,0.33
7,2018,1,1,1,0,0,0.00
8,2018,2,1,1,2,1,1.33
"""


def ledger_events(ws, year):
    """The finite counts of a ledger's events line, and the line itself."""
    events = json.loads((ws / "ledgers" / f"{year}.jsonl").read_text().splitlines()[1])
    assert events["kind"] == "events"
    return {int(d): c for d, c in events["counts"].items() if c}, events


def snapshot_x(ws, year):
    """Each scholar's x in the run's one x snapshot, ``states/<year>.jsonl``,
    read as plain JSON and shown with 2 decimals as the index-table
    shows it."""
    assert [p.name for p in (ws / "states").iterdir()] == [f"{year}.jsonl"]
    head, *records = map(json.loads, (ws / "states" / f"{year}.jsonl").read_text().splitlines())
    assert (head["kind"], head["year"]) == ("header", year)
    return {r["id"]: f"{float(Fraction(r['xn'], head['scale'])):.2f}" for r in records}


def check_cli_against_oracle(tmp_path, lines, n, alpha, strict_window, window):
    """Ingest and run ``lines`` exact and capped: the events line of every
    ledger equals the oracle's distances (capped: finite codes within the
    cap exactly, INF + exceeds as one sum), the x of every scholar in the
    x snapshot equals the x column of the oracle's CSV (with cap = n,
    capped x is exact x), and the exact index-table equals the oracle's
    CSV byte for byte."""
    src = tmp_path / "corpus.jsonl"
    src.write_text("\n".join(lines) + "\n")
    expected_csv, expected_events = oracle_index_run(
        lines, Config(window_length=window, n=n, alpha=alpha, strict_window=strict_window))
    expected_x = {row.split(",", 1)[0]: row.rsplit(",", 1)[1]
                  for row in expected_csv.splitlines()[1:]}
    for exact in (True, False):
        ws = tmp_path / f"ws-{exact}"
        config = tmp_path / f"{exact}.cfg"
        config.write_text(f"n = {n}\nalpha = {alpha}\nwindow_length = {window}\n"
                          f"strict_window = {str(strict_window).lower()}\n"
                          f"exact_distances = {str(exact).lower()}\n")
        common = ["--workspace", str(ws), "--config", str(config)]
        assert main(["ingest", str(src), *common]) == 0
        assert main(["run", *common]) == 0
        assert sorted(int(p.stem) for p in (ws / "ledgers").glob("*.jsonl")) == \
            sorted(expected_events)
        for year, tally in expected_events.items():
            finite, events = ledger_events(ws, year)
            if exact:
                assert finite == {d: c for d, c in tally.items() if d != math.inf}, year
                assert (events["infinite"], events["exceeds"]) == (tally[math.inf], 0), year
            else:
                assert finite == {d: c for d, c in tally.items() if d <= n}, year
                assert events["infinite"] + events["exceeds"] == \
                    sum(c for d, c in tally.items() if d > n), year
        x = snapshot_x(ws, max(expected_events))
        assert x.keys() <= expected_x.keys()
        assert {a: x.get(a, "0.00") for a in expected_x} == expected_x
        if exact:
            assert main(["report", "index-table", *common]) == 0
            assert (ws / "reports" / "index-table.csv").read_text() == expected_csv
    return expected_csv


@pytest.mark.parametrize("seed, authors, n, alpha, strict_window, window", [
    (1, 25, 6, Fraction(1), False, 5),
    (2, 25, 1, Fraction(2, 3), True, 3),
    (3, 25, 0, Fraction(3), False, 2),
    (4, 60, 3, Fraction(1, 2), True, 4),
    (5, 25, 2, Fraction(1), True, 2),
    (6, 60, 6, Fraction(3, 2), False, 3),
    (7, 60, 4, Fraction(1), False, 4),
    (8, 60, 1, Fraction(5, 3), True, 5),
])
def test_cli_matches_oracle_on_random_corpora(tmp_path, seed, authors, n, alpha,
                                              strict_window, window):
    """25 authors give dense windows with short paths; 60 give sparse
    ones with paths longer than n and many unreachable citations."""
    lines = random_corpus_lines(random.Random(seed), 120, authors, 1998, 2006)
    csv = check_cli_against_oracle(tmp_path, lines, n, alpha, strict_window, window)
    assert csv.count("\n") > 10, "the corpus credits too few scholars"


def test_cli_and_oracle_match_the_table1_golden(tmp_path):
    lines = table1_lines(TABLE1_REFERENCES)
    csv, events = oracle_index_run(lines, Config())
    assert csv == TABLE1_INDEX_TABLE
    assert events == TABLE1_EVENTS
    assert check_cli_against_oracle(tmp_path, lines, 6, Fraction(1), False, 5) == \
        TABLE1_INDEX_TABLE
