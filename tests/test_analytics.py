"""Experiment harness: cohorts, closeness, rankings, degeneracy, heatmap."""

import random
from fractions import Fraction

import pytest

from citedist.analytics import (
    CohortSelection,
    c_equals_nw_stats,
    classify_closeness,
    rank,
    repeated_citation_matrix,
    select_cohort,
    x_vs_q_scatter,
)
from citedist.codec import INF_CODE
from citedist.collab import build_window, connected_components, shortest_distance
from citedist.config import Config
from citedist.corpus import parse_records
from citedist.errors import InsufficientCohortError
from citedist.indices import IndexRecord

from synthcorpus import (
    floyd_warshall,
    random_corpus_lines,
    record_line,
    reference_repeat_cells,
)

# The 20-scholar cohort of the c-index comparison experiment:
# (id, Q, N_w, c, x as printed); h = 8 and g = 13 throughout.
COHORT_I = [
    (1, 197, 120, 120, "170.33"),
    (2, 208, 103, 103, "149.00"),
    (3, 191, 91, 91, "172.33"),
    (4, 192, 85, 85, "104.67"),
    (5, 199, 80, 80, "152.00"),
    (6, 200, 77, 77, "183.00"),
    (7, 202, 72, 72, "164.00"),
    (8, 206, 70, 70, "167.00"),
    (9, 191, 69, 69, "163.50"),
    (10, 191, 64, 64, "103.50"),
    (11, 192, 62, 62, "138.67"),
    (12, 198, 60, 60, "121.67"),
    (13, 207, 55, 55, "99.00"),
    (14, 191, 50, 50, "157.50"),
    (15, 192, 46, 46, "171.17"),
    (16, 195, 40, 40, "147.33"),
    (17, 195, 35, 35, "92.00"),
    (18, 198, 30, 30, "79.67"),
    (19, 195, 25, 25, "115.67"),
    (20, 199, 20, 20, "113.33"),
]
# Published x rankings for the same cohort, keyed by scholar id.
RANK_X_I = {1: 4, 2: 10, 3: 2, 4: 16, 5: 9, 6: 1, 7: 6, 8: 5, 9: 7, 10: 17,
            11: 12, 12: 13, 13: 18, 14: 8, 15: 3, 16: 11, 17: 19, 18: 20,
            19: 14, 20: 15}


def cohort_records():
    records = []
    for sid, q, n_w, c, x in COHORT_I:
        records.append(
            IndexRecord(f"{sid:02d}", 2018, q=q, h=8, g=13, c=c, n_w=n_w, x=Fraction(x))
        )
    return records


class TestCloseness:
    def test_published_deviations(self):
        result = classify_closeness(cohort_records(), "c", "x")
        assert f"{result.s_a:.2f}" == "25.49"
        assert f"{result.s_b:.2f}" == "30.83"

    def test_pair_7_8_close_close(self):
        result = classify_closeness(cohort_records(), "c", "x")
        assert result.cell("07", "08") == (True, True)

    def test_other_published_cells(self):
        result = classify_closeness(cohort_records(), "c", "x")
        assert result.cell("10", "11") == (True, False)
        assert result.cell("03", "15") == (False, True)
        assert result.cell("04", "06") == (False, False)

    def test_identical_values_close(self):
        recs = [
            IndexRecord("a", 2000, q=10, h=1, g=1, c=2, n_w=0, x=Fraction(5)),
            IndexRecord("b", 2000, q=12, h=1, g=1, c=2, n_w=0, x=Fraction(5)),
            IndexRecord("d", 2000, q=14, h=1, g=1, c=9, n_w=0, x=Fraction(9)),
        ]
        result = classify_closeness(recs, "c", "x")
        assert result.cell("a", "b") == (True, True)

    def test_zero_deviation_all_close(self):
        recs = [
            IndexRecord("a", 2000, q=10, h=1, g=1, c=2, n_w=0, x=Fraction(5)),
            IndexRecord("b", 2000, q=12, h=1, g=1, c=2, n_w=0, x=Fraction(7)),
        ]
        result = classify_closeness(recs, "c", "x")
        assert result.s_a == 0.0
        assert result.pairs[0].close_a is True

    def test_symmetry(self):
        result = classify_closeness(cohort_records(), "c", "x")
        assert result.cell("07", "08") == result.cell("08", "07")

    def test_needs_two(self):
        with pytest.raises(ValueError):
            classify_closeness(cohort_records()[:1], "c", "x")


class TestRank:
    def test_published_c_ranking(self):
        ranked = rank(cohort_records(), "c")
        assert ranked[0].record.scholar == "01" and ranked[0].value == 120

    def test_published_x_ranking(self):
        ranked = rank(cohort_records(), "x")
        positions = {r.record.scholar: r.position for r in ranked}
        assert positions == {f"{sid:02d}": pos for sid, pos in RANK_X_I.items()}
        assert ranked[0].record.scholar == "06"

    def test_positions_are_gapless(self):
        ranked = rank(cohort_records(), "x")
        assert [r.position for r in ranked] == list(range(1, 21))

    def test_all_equal_orders_by_q_then_id(self):
        recs = [
            IndexRecord("b", 2000, q=5, h=0, g=0, c=1, n_w=0, x=Fraction(1)),
            IndexRecord("a", 2000, q=5, h=0, g=0, c=1, n_w=0, x=Fraction(1)),
            IndexRecord("c", 2000, q=9, h=0, g=0, c=1, n_w=0, x=Fraction(1)),
        ]
        ranked = rank(recs, "x")
        assert [r.record.scholar for r in ranked] == ["c", "a", "b"]

    def test_scaling_leaves_ranking_unchanged(self):
        records = cohort_records()
        scaled = [
            IndexRecord(r.scholar, r.year, q=r.q, h=r.h, g=r.g, c=r.c, n_w=r.n_w,
                        x=r.x * Fraction(1, 2))
            for r in records
        ]
        base = [r.record.scholar for r in rank(records, "x")]
        assert [r.record.scholar for r in rank(scaled, "x")] == base

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            rank([], "x")


class TestCohort:
    def test_constraints_hold(self):
        sel = CohortSelection(q_range=(190, 210), fixed={"h": 8, "g": 13}, size=10, seed=5)
        cohort = select_cohort(cohort_records(), sel)
        assert len(cohort) == 10
        assert all(190 <= r.q <= 210 and r.h == 8 and r.g == 13 for r in cohort)

    def test_deterministic(self):
        sel = CohortSelection(q_range=(190, 210), fixed={}, size=12, seed=9)
        a = select_cohort(cohort_records(), sel)
        b = select_cohort(cohort_records(), sel)
        assert [r.scholar for r in a] == [r.scholar for r in b]

    def test_size_zero(self):
        sel = CohortSelection(q_range=(190, 210), fixed={}, size=0, seed=1)
        assert select_cohort(cohort_records(), sel) == []

    def test_insufficient(self):
        sel = CohortSelection(q_range=(0, 1), fixed={}, size=3, seed=1)
        with pytest.raises(InsufficientCohortError) as exc:
            select_cohort(cohort_records(), sel)
        assert exc.value.available == 0 and exc.value.needed == 3


class TestDegeneracy:
    def test_engineered_bin(self):
        # every record with more unreachable citations than its largest
        # finite distance has c == N_w
        records = []
        for i in range(6):
            n_w = 30 + i
            records.append(
                IndexRecord(f"s{i}", 2000, q=60, h=1, g=1, c=n_w, n_w=n_w, x=Fraction(40))
            )
        rows = c_equals_nw_stats(records, [50, 200])
        assert rows[0].scholars == 6
        assert rows[0].degenerate == 6
        assert rows[0].ratio == 1.0

    def test_non_degenerate_counted(self):
        records = [IndexRecord("s", 2000, q=60, h=1, g=1, c=12, n_w=0, x=Fraction(40))]
        rows = c_equals_nw_stats(records, [50, 200])
        assert rows[0].degenerate == 0

    def test_table_shape_and_empty_bins(self):
        rows = c_equals_nw_stats([], [50, 200, 400, 600, 800])
        assert [(r.q_lo, r.q_hi) for r in rows] == [(50, 200), (200, 400), (400, 600), (600, 800)]
        assert all(r.scholars == 0 and r.ratio is None for r in rows)

    def test_bins_are_half_open(self):
        records = [IndexRecord("s", 2000, q=200, h=1, g=1, c=5, n_w=5, x=Fraction(10))]
        rows = c_equals_nw_stats(records, [50, 200, 400])
        assert rows[0].scholars == 0 and rows[1].scholars == 1


def _pair_totals(store, lo, hi):
    """Independent recount: citations per unordered (cited, citing) author
    pair, each event counted once per pair it connects."""
    pair_totals = {}
    for year in range(lo, hi + 1):
        for pid in store.papers_in_year(year):
            for ref in store.paper_refs[pid]:
                seen = set()
                for m in store.paper_authors[ref]:
                    for n in store.paper_authors[pid]:
                        if m != n:
                            seen.add((min(m, n), max(m, n)))
                for pair in seen:
                    pair_totals[pair] = pair_totals.get(pair, 0) + 1
    return pair_totals


def _expected_cells(pair_totals, dist, max_repeat, max_distance):
    """Heatmap cells from pair totals and all-pairs distances."""
    width = max_distance + 3  # 0..max, "(max+1)+", "INF"
    cells = [[0] * width for _ in range(max_repeat + 1)]
    for (a, b), total in pair_totals.items():
        d = dist[a, b]
        if d == float("inf"):
            col = width - 1
        elif d > max_distance:
            col = width - 2
        else:
            col = int(d)
        cells[min(total - 1, max_repeat)][col] += 1
    return cells


class TestRepeatedCitations:
    def test_mutual_pair_counts_two(self):
        lines = [
            record_line("pa", 2014, ["a"]),
            record_line("pb", 2015, ["b"], ["pa"]),
            record_line("pa2", 2016, ["a"], ["pb"]),
        ]
        store = parse_records(lines, Config())
        matrix = repeated_citation_matrix(store, (2014, 2018))
        # a cited b once and b cited a once -> 2 citations -> 1 repeat
        assert matrix.total_citations == 2
        assert matrix.pair_count == 1
        assert matrix.cells[1][matrix.distance_labels.index("INF")] == 1

    def test_single_citation_zero_repeats(self):
        lines = [
            record_line("pa", 2014, ["a"]),
            record_line("pb", 2015, ["b"], ["pa"]),
        ]
        store = parse_records(lines, Config())
        matrix = repeated_citation_matrix(store, (2014, 2018))
        assert sum(matrix.cells[0]) == 1
        assert sum(sum(row) for row in matrix.cells[1:]) == 0

    def test_matrix_matches_brute_force(self):
        rng = random.Random(71)
        store = parse_records(random_corpus_lines(rng, 120, 20, 2010, 2016), Config())
        lo, hi = 2010, 2016
        net = build_window(store, hi, 5)
        matrix = repeated_citation_matrix(store, (lo, hi), net=net)

        pair_totals = _pair_totals(store, lo, hi)
        assert matrix.total_citations == sum(pair_totals.values())
        assert matrix.pair_count == len(pair_totals)
        cells = [[0] * len(matrix.distance_labels) for _ in matrix.repeat_labels]
        for (a, b), total in pair_totals.items():
            d = shortest_distance(net, {a}, {b})
            if d == INF_CODE:
                col = len(matrix.distance_labels) - 1
            elif d > 12:
                col = len(matrix.distance_labels) - 2
            else:
                col = d
            cells[min(total - 1, 10)][col] += 1
        assert [list(row) for row in matrix.cells] == cells

    def test_matrix_matches_floyd_warshall_and_per_source_engine(self):
        """Differential test on 32 seeded corpora against all-pairs
        distances and against the per-source ``distances_to`` engine the
        pair queries replaced.  Caps of 0, 1 and 2 fill the "(max+1)+"
        bin, a repeat cap of 2 fills "2+", and a network for a year
        before the range end leaves some authors outside the window."""
        filled = {"exceeds": 0, "inf": 0, "top_repeat": 0, "outside": 0}
        for seed in range(32):
            rng = random.Random(1000 + seed)
            n_authors = rng.randint(12, 40)
            lines = random_corpus_lines(rng, rng.randint(40, 110), n_authors, 2000, 2008,
                                        max_authors=3)
            store = parse_records(lines, Config())
            lo, hi = 2002, 2008
            pair_totals = _pair_totals(store, lo, hi)
            for net_year, window in ((hi, 5), (hi - 3, 3)):
                net = build_window(store, net_year, window)
                dist = floyd_warshall(net.num_slots, list(net.edges()))
                filled["outside"] += sum(
                    1 for a, b in pair_totals if not (net.has_node(a) and net.has_node(b))
                )
                for max_distance in (0, 1, 2, 12):
                    for max_repeat in (2, 10):
                        matrix = repeated_citation_matrix(
                            store, (lo, hi), net=net,
                            max_repeat=max_repeat, max_distance=max_distance,
                        )
                        cells = [list(row) for row in matrix.cells]
                        expected = _expected_cells(pair_totals, dist, max_repeat, max_distance)
                        assert cells == expected, (seed, net_year, max_distance, max_repeat)
                        reference = reference_repeat_cells(
                            store, (lo, hi), net, max_repeat, max_distance)
                        assert (cells, matrix.total_citations, matrix.pair_count) == reference
                        assert matrix.pair_count == len(pair_totals)
                        filled["exceeds"] += sum(row[-2] for row in cells)
                        filled["inf"] += sum(row[-1] for row in cells)
                        filled["top_repeat"] += sum(cells[-1])
        assert all(filled.values()), filled

    def test_matrix_on_giant_components(self):
        """Seeded corpora with a giant component (few authors, many papers
        of one or two authors, window 5), where a scholar's ball grows
        deep and serves partners at several depths: cells against
        all-pairs distances and the per-source engine, capped and not."""
        deep = 0
        for seed in range(6):
            rng = random.Random(2000 + seed)
            n_authors = rng.randint(40, 80)
            lines = random_corpus_lines(rng, 5 * n_authors, n_authors, 2000, 2009,
                                        max_authors=2)
            store = parse_records(lines, Config())
            lo, hi = 2005, 2009
            pair_totals = _pair_totals(store, lo, hi)
            net = build_window(store, hi, 5)
            assert connected_components(net)[0].node_count >= 0.75 * net.node_count
            dist = floyd_warshall(net.num_slots, list(net.edges()))
            deep += sum(1 for a, b in pair_totals if 5 <= dist[a, b] < float("inf"))
            for max_distance in (1, 3, 5, 12):
                matrix = repeated_citation_matrix(store, (lo, hi), net=net,
                                                  max_distance=max_distance)
                cells = [list(row) for row in matrix.cells]
                assert cells == _expected_cells(pair_totals, dist, 10, max_distance)
                reference = reference_repeat_cells(store, (lo, hi), net, 10, max_distance)
                assert (cells, matrix.total_citations, matrix.pair_count) == reference
        assert deep > 300, deep


class TestScatter:
    def test_points_respect_bounds_and_seed(self):
        records = cohort_records()
        pts = x_vs_q_scatter(records, q_max=205, sample_size=8, seed=3)
        assert len(pts) == 8
        assert all(x <= q for q, x in pts)
        assert pts == x_vs_q_scatter(records, q_max=205, sample_size=8, seed=3)

    def test_self_citation_heavy_scholar_sits_near_zero(self):
        rec = IndexRecord("selfish", 2000, q=50, h=2, g=2, c=0, n_w=0, x=Fraction(0))
        pts = x_vs_q_scatter([rec], q_max=100, sample_size=5, seed=0)
        assert pts == [(50, 0.0)]

    def test_spread_at_fixed_q(self):
        near = IndexRecord("near", 2000, q=100, h=1, g=1, c=0, n_w=0, x=Fraction(5))
        far = IndexRecord("far", 2000, q=100, h=1, g=1, c=50, n_w=50, x=Fraction(100))
        pts = dict(x_vs_q_scatter([near, far], q_max=100, sample_size=2, seed=0))
        assert pts[100] in (5.0, 100.0)  # same Q, different x
        values = [x for _, x in x_vs_q_scatter([near, far], 100, 2, 0)]
        assert len(set(values)) == 2
