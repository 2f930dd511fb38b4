"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from citedist.collab import (
    CollabNetwork,
    Distance,
    assortativity,
    avg_clustering,
    build_window,
    shortest_distance,
)
from citedist.codec import decode_ledger
from citedist.config import Config
from citedist.corpus import parse_records
from citedist.indices import c_index, index_record, x_from_slices, x_increment, x_scale
from citedist.pipeline import year_ledger
from citedist.analytics import classify_closeness, rank

from synthcorpus import (
    assortativity_oracle,
    clustering_oracle,
    floyd_warshall,
    oracle_set_distance,
    random_corpus_lines,
    random_graph,
    table1_store,
    write_scale_corpus,
)
from test_analytics import COHORT_I, cohort_records
from test_indices import EXPERIMENT_PROFILES, pooled_tally, series_for, tally_of


def ok(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] {message}: PASS")


def test_c01_c_index_golden():
    assert c_index([12, 9, 7, 5, 5, 4, 3, 2, 1, 0], 1) == 5
    ok(1, "c-index of the worked ten-citation profile is exactly 5")


def test_c02_x_index_golden_suite():
    minimum = {
        ("I", 7): "164.00", ("I", 8): "167.00", ("I", 3): "172.33", ("I", 15): "171.17",
        ("II", 8): "106.50", ("II", 10): "106.00", ("II", 3): "88.00", ("II", 4): "45.67",
        ("III", 10): "82.33", ("III", 12): "83.67", ("III", 1): "29.33", ("III", 5): "54.50",
    }
    seen = set()
    for exp, scholar, counts, q, x2dp in EXPERIMENT_PROFILES:
        tally = tally_of(counts)
        assert sum(tally.values()) == q, f"Q mismatch for {exp}/{scholar}"
        x = x_increment(tally, 6)
        assert abs(x - Fraction(x2dp)) < Fraction(5, 1000), f"x mismatch for {exp}/{scholar}"
        seen.add((exp, scholar))
    assert set(minimum) <= seen
    assert dict(((e, s), x) for e, s, _, _, x in EXPERIMENT_PROFILES)[("I", 7)] == "164.00"
    ok(2, f"{len(EXPERIMENT_PROFILES)} published distance profiles reproduce x at n=6 "
          "(2 dp) with matching Q")


def test_c03_windowed_network_golden():
    store = table1_store()
    lab = store.author_labels

    def edges(year):
        net = build_window(store, year, 5)
        return {tuple(sorted((lab[u], lab[v]))) for u, v in net.edges()}

    assert edges(2016) == {
        ("1", "8"), ("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4"),
        ("5", "6"), ("5", "7"), ("6", "7"),
    }
    assert edges(2017) == {
        ("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4"),
        ("4", "6"), ("5", "6"), ("5", "7"), ("6", "7"),
    }
    assert edges(2018) == {
        ("2", "3"), ("2", "4"), ("3", "4"), ("5", "6"), ("5", "7"), ("6", "7"),
        ("4", "6"), ("2", "9"),
    }
    ok(3, "seven-paper corpus yields the expected 2016/2017/2018 window edge sets")


def test_c04_bfs_oracle_hundred_graphs():
    rng = random.Random(40_404)
    densities = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    infinite_seen = 0
    for i in range(100):
        n = rng.randint(2, 200)
        p = densities[i % len(densities)]
        nodes, edges = random_graph(rng, n, p)
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        dist = floyd_warshall(n, edges)
        for _ in range(10):
            sources = set(rng.sample(nodes, rng.randint(1, min(3, n))))
            targets = set(rng.sample(nodes, rng.randint(1, min(3, n))))
            expected = oracle_set_distance(dist, sources, targets)
            got = shortest_distance(net, sources, targets)
            if expected == math.inf:
                assert got.is_infinite
                infinite_seen += 1
            else:
                assert got == Distance.finite(int(expected))
            cap = rng.randint(0, 8)
            capped = shortest_distance(net, sources, targets, cap=cap)
            if expected <= cap:
                assert capped == Distance.finite(int(expected))
            elif capped.exceeds_cap:  # a path exists, longer than the cap
                assert capped.cap == cap and cap < expected < math.inf
            else:
                assert capped.is_infinite and expected == math.inf
    assert infinite_seen > 50  # sparse graphs must have exercised the INFINITE path
    ok(4, "set-to-set distances equal the all-pairs oracle on 100 random graphs, "
          "including INFINITE and cap soundness")


def test_c05_incremental_equals_batch_fifty_corpora():
    rng = random.Random(50_505)
    for trial in range(50):
        n_papers = rng.randint(60, 900) if trial != 0 else 5000
        n_years = rng.randint(3, 30)
        year_lo = rng.randint(1960, 1990)
        lines = random_corpus_lines(
            rng, n_papers, max(10, n_papers // 8), year_lo, year_lo + n_years - 1
        )
        store = parse_records(lines, Config())
        cfg = Config(exact_distances=bool(trial % 2))
        lo, hi = store.year_span()
        years = range(lo, hi + 1)
        # year by year, as run adds each computed year's x increments
        x: dict[int, int] = {}
        ledgers = {}
        for year in years:
            counted = year_ledger(store, year, cfg, build_window(store, year, cfg.window_length))
            for scholar, delta in counted.increments.items():
                x[scholar] = x.get(scholar, 0) + delta
            ledgers[year] = decode_ledger(counted.records, store,
                                          {"year": year, "cap": counted.cap})

        # one shot over each scholar's year slices
        for scholar in range(store.num_authors):
            slices = [(y, ledger.scholars[scholar]) for y, ledger in ledgers.items()
                      if scholar in ledger.scholars]
            assert Fraction(x.get(scholar, 0), x_scale(cfg.n)) == x_from_slices(slices, cfg.n)
    ok(5, "yearly replay and one-shot batch agree exactly on 50 corpora")


def test_c06_degeneracy_thousand_multisets():
    rng = random.Random(60_606)
    for _ in range(1000):
        d_f = rng.randint(0, 20)
        finite = [rng.randint(0, d_f) for _ in range(rng.randint(0, 60))] + [d_f]
        n_w = d_f + rng.randint(1, 40)
        distances = [math.inf] * n_w + finite
        rng.shuffle(distances)
        assert c_index(distances, 1) == n_w
    for _ in range(200):
        finite = [rng.randint(0, 30) for _ in range(rng.randint(1, 60))]
        assert c_index(finite, 1) <= max(finite)
    ok(6, "c = N_w at alpha=1 whenever N_w > D_f (1000 multisets); "
          "c <= max distance when N_w = 0")


def test_c07_alpha_monotonicity():
    rng = random.Random(70_707)
    alphas = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), 1, Fraction(3, 2), 2, 5]
    for _ in range(300):
        distances = [
            math.inf if rng.random() < 0.2 else rng.randint(0, 25)
            for _ in range(rng.randint(0, 50))
        ]
        values = [c_index(distances, a) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi
    ok(7, "c-index is monotone in alpha on random multisets")


def test_c08_statistics_oracles():
    star = CollabNetwork.from_edges(range(4), [(0, 1), (0, 2), (0, 3)])
    assert assortativity(star) == pytest.approx(-1.0, abs=1e-9)
    triangle = CollabNetwork.from_edges(range(3), [(0, 1), (1, 2), (0, 2)])
    assert avg_clustering(triangle) == pytest.approx(1.0, abs=1e-12)
    rng = random.Random(80_808)
    checked_r = 0
    for _ in range(40):
        n = rng.randint(2, 20)
        nodes, edges = random_graph(rng, n, rng.choice([0.15, 0.3, 0.6]))
        net = CollabNetwork.from_edges(nodes, edges, num_slots=n)
        assert avg_clustering(net) == pytest.approx(clustering_oracle(nodes, edges), abs=1e-9)
        if edges:
            degrees = {u: net.degree(u) for u in nodes}
            expected = assortativity_oracle(degrees, edges)
            got = assortativity(net)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-9)
                checked_r += 1
    assert checked_r >= 20
    ok(8, "star-3 assortativity, triangle clustering, and 40 random graphs match "
          "the direct-formula oracles within 1e-9")


def test_c09_bound_suite():
    rng = random.Random(90_909)
    # random populations through the snapshot path
    for _ in range(60):
        profiles = {
            year: {d: rng.randint(0, 5) for d in range(-1, rng.randint(1, 9))}
            for year in range(2000, 2000 + rng.randint(1, 5))
        }
        pooled = pooled_tally(series_for(profiles))
        q = sum(pooled.values())
        papers = []
        remaining = q
        while remaining:
            take = rng.randint(1, remaining)
            papers.append(take)
            remaining -= take
        for n in (0, 1, 6, 11):
            rec = index_record("s", max(profiles), pooled, papers, Config(n=n))
            assert 0 <= rec.x <= rec.q
            if n == 0:
                assert rec.x == rec.q
            assert rec.g >= rec.h

    # rankings over the published cohort are gapless permutations
    for index in ("Q", "c", "x", "N_w"):
        ranked = rank(cohort_records(), index)
        assert sorted(r.position for r in ranked) == list(range(1, len(COHORT_I) + 1))

    # closeness cell for the published pair, using the published deviations
    result = classify_closeness(cohort_records(), "c", "x")
    assert f"{result.s_a:.2f}" == "25.49" and f"{result.s_b:.2f}" == "30.83"
    assert abs(72 - 70) <= 0.1 * 25.49 and abs(164 - 167) <= 0.1 * 30.83
    assert result.cell("07", "08") == (True, True)
    ok(9, "x/Q bounds, n=0 degeneration, g >= h, gapless rankings, and the "
          "published Close/Close cell all hold")


def test_c10_scale_smoke(tmp_path):
    corpus = tmp_path / "scale.jsonl"
    write_scale_corpus(corpus, n_papers=100_000, n_authors=50_000,
                       n_citations=500_000, year_lo=1970, year_hi=2019, seed=1)
    ws = tmp_path / "ws"
    env_cmd = [sys.executable, "-m", "citedist"]
    started = time.monotonic()
    steps = [
        env_cmd + ["ingest", str(corpus), "--workspace", str(ws)],
        env_cmd + ["run", "--workspace", str(ws)],
        env_cmd + ["report", "network-stats", "--workspace", str(ws), "--year", "2019"],
    ]
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        assert proc.returncode == 0, f"{step}: {proc.stderr[-2000:]}"
    elapsed = time.monotonic() - started
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    meta = json.loads((ws / "corpus.meta.json").read_text())
    assert meta["summary"]["papers"] == 100_000
    assert meta["summary"]["authors"] == 50_000
    assert meta["summary"]["citations"] == 500_000
    stats_row = (ws / "reports" / "network-stats.csv").read_text().splitlines()[1]
    assert stats_row.startswith("2019,")
    assert elapsed < 300, f"pipeline took {elapsed:.1f}s"
    assert peak_kb < 2 * 1024 * 1024, f"peak rss {peak_kb / 1024:.0f} MB"
    ok(10, f"100k-paper pipeline finished in {elapsed:.1f}s "
           f"with peak rss {peak_kb / 1024:.0f} MB")
