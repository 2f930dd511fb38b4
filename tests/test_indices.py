"""Index computations: weights, x increments, c/h/g, snapshots."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from citedist.codec import decode_ledger
from citedist.config import Config
from citedist.corpus import parse_records
from citedist.distances import (
    EXCEEDS_CODE,
    INF_CODE,
    counted_ledger,
)
from citedist.errors import IncompleteStateError
from citedist.indices import (
    IndexRecord,
    c_index,
    g_index,
    h_index,
    index_record,
    weight,
    x_from_slices,
    x_increment,
    x_increment_scaled,
    x_scale,
)

from synthcorpus import fraction_c_oracle, record_line

# Citation-count-by-distance profiles published for the three ranking
# experiments, with the scholar's total citations and the expected
# weighted index at n = 6, rendered to 2 decimals.  One experiment-III
# profile (scholar 14) is omitted: its column sums to a different total
# than the published Q, so the published x cannot follow from it.
EXPERIMENT_PROFILES = [
    # (experiment, scholar, {distance: count}, Q, x displayed)
    ("I", 7, {0: 20, 1: 1, 2: 4, 3: 6, 4: 19, 5: 31, 6: 121}, 202, "164.00"),
    ("I", 8, {0: 26, 1: 0, 2: 1, 3: 2, 4: 25, 5: 18, 6: 134}, 206, "167.00"),
    ("I", 10, {0: 24, 1: 29, 2: 41, 3: 16, 4: 10, 5: 4, 6: 67}, 191, "103.50"),
    ("I", 11, {0: 19, 1: 11, 2: 16, 3: 11, 4: 19, 5: 16, 6: 100}, 192, "138.67"),
    ("I", 3, {0: 11, 1: 0, 2: 1, 3: 2, 4: 10, 5: 16, 6: 151}, 191, "172.33"),
    ("I", 15, {0: 9, 1: 4, 2: 2, 3: 7, 4: 5, 5: 12, 6: 153}, 192, "171.17"),
    ("I", 4, {0: 59, 1: 28, 2: 6, 3: 1, 4: 0, 5: 3, 6: 95}, 192, "104.67"),
    ("I", 6, {0: 13, 1: 1, 2: 0, 3: 1, 4: 5, 5: 6, 6: 174}, 200, "183.00"),
    ("II", 8, {0: 30, 1: 10, 2: 24, 3: 53, 4: 32, 5: 24, 6: 29}, 202, "106.50"),
    ("II", 10, {0: 27, 1: 12, 2: 16, 3: 49, 4: 50, 5: 25, 6: 20}, 199, "106.00"),
    ("II", 3, {0: 39, 1: 35, 2: 28, 3: 35, 4: 36, 5: 16, 6: 18}, 207, "88.00"),
    ("II", 4, {0: 105, 1: 23, 2: 18, 3: 27, 4: 8, 5: 6, 6: 12}, 199, "45.67"),
    ("II", 6, {0: 28, 1: 11, 2: 28, 3: 65, 4: 38, 5: 19, 6: 15}, 204, "99.83"),
    ("II", 18, {0: 21, 1: 10, 2: 25, 3: 91, 4: 35, 5: 11, 6: 12}, 205, "100.00"),
    ("II", 1, {0: 52, 1: 50, 2: 39, 3: 26, 4: 17, 5: 4, 6: 16}, 204, "65.00"),
    ("II", 12, {0: 15, 1: 9, 2: 27, 3: 67, 4: 48, 5: 18, 6: 15}, 199, "106.00"),
    ("III", 10, {0: 86, 1: 1, 2: 6, 3: 33, 4: 40, 5: 24, 6: 17}, 207, "82.33"),
    ("III", 12, {0: 49, 1: 6, 2: 29, 3: 47, 4: 44, 5: 11, 6: 11}, 197, "83.67"),
    ("III", 1, {0: 130, 1: 41, 2: 8, 3: 9, 4: 5, 5: 0, 6: 12}, 205, "29.33"),
    ("III", 3, {0: 36, 1: 3, 2: 2, 3: 32, 4: 64, 5: 39, 6: 27}, 203, "119.33"),
    ("III", 8, {0: 95, 1: 25, 2: 10, 3: 15, 4: 18, 5: 13, 6: 18}, 194, "55.83"),
    ("III", 20, {0: 124, 1: 4, 2: 0, 3: 2, 4: 13, 5: 11, 6: 36}, 190, "55.50"),
    ("III", 5, {0: 117, 1: 8, 2: 12, 3: 22, 4: 21, 5: 5, 6: 20}, 205, "54.50"),
]


class TestWeight:
    def test_examples(self):
        assert weight(0, 6) == 0
        assert weight(3, 6) == Fraction(1, 2)
        assert weight(0, 0) == 1  # 0/0 = 1 convention
        assert weight(math.inf, 6) == 1
        assert weight(2, 6) == Fraction(1, 3)
        assert weight(INF_CODE, 6) == 1

    def test_exceeds_cap(self):
        """A distance known only to exceed some cap has no weight of its
        own: ``counted_ledger`` weighs it under the ledger's cap."""
        with pytest.raises(ValueError):
            weight(EXCEEDS_CODE, 6)

    @pytest.mark.parametrize("d, error", [
        (True, TypeError), (-1.0, TypeError), (2.5, TypeError), ("3", TypeError),
        (-3, ValueError), (EXCEEDS_CODE, ValueError)])
    def test_rejects_what_is_not_a_distance(self, d, error):
        with pytest.raises(error):
            weight(d, 6)
        with pytest.raises(error):
            c_index([1, d], 1)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 12))
    def test_monotone_and_bounded(self, d1, d2, n):
        lo, hi = sorted((d1, d2))
        assert 0 <= weight(lo, n) <= weight(hi, n) <= 1

    def test_n_zero_all_ones(self):
        for d in (0, 1, 5, 100, math.inf):
            assert weight(d, 0) == 1


class TestXIncrement:
    @pytest.mark.parametrize("exp, scholar, counts, q, x2dp", EXPERIMENT_PROFILES)
    def test_published_profiles(self, exp, scholar, counts, q, x2dp):
        tally = tally_of(counts)
        assert sum(tally.values()) == q
        x = x_increment(tally, 6)
        assert abs(x - Fraction(x2dp)) < Fraction(5, 1000)
        assert f"{float(x):.2f}" == x2dp

    def test_zero_counts(self):
        assert x_increment({}, 6) == 0

    def test_infinite_bucket_weighs_one(self):
        tally = tally_of({0: 3}, 4)
        assert x_increment(tally, 6) == 4

    def test_n_zero_reduces_to_q(self):
        tally = tally_of({0: 5, 2: 3}, 2)
        assert x_increment(tally, 0) == 10 == sum(tally.values())

    def test_capped_tally_needs_cap_at_least_n(self):
        """A capped citation weighs 1; a tally carries no cap, so the
        credit refuses a year capped below n."""
        assert x_increment({1: 2, EXCEEDS_CODE: 3}, 6) == Fraction(2, 6) + 3
        events = [(0, 0, 1)] + [(0, 0, EXCEEDS_CODE)] * 3
        assert counted_ledger(TestUpdateX.STORE, 2000, events, 6, 6).increments == {0: 19, 1: 19}
        with pytest.raises(ValueError):
            counted_ledger(TestUpdateX.STORE, 2000, events, 4, 6)


class TestUpdateX:
    """The yearly x update of ``run``: each computed year adds the x
    increments of its counted ledger (``distances.counted_ledger``)."""

    STORE = parse_records([record_line(f"p{k}", 2000, [f"a{k}", f"a{k + 1}"])
                           for k in range(8)], Config())

    def counted(self, rng, year, n, codes):
        events = [(rng.randrange(8), 0, rng.choice(codes)) for _ in range(rng.randint(1, 20))]
        return counted_ledger(self.STORE, year, events, None, n)

    def test_additive(self):
        """A year adds to each credited scholar's x the scaled increment
        of its tally in the year's ledger, capped ledgers included."""
        rng = random.Random(6)
        exceeded = 0
        for n in range(9):
            events = [(rng.randrange(8), 0, rng.choice([EXCEEDS_CODE, INF_CODE, *range(n + 1)]))
                      for _ in range(30)]
            counted = counted_ledger(self.STORE, 2000, events, n, n)
            ledger = decode_ledger(counted.records, self.STORE, {"year": 2000, "cap": n})
            assert counted.increments == {
                a: delta for a, t in ledger.scholars.items() if (delta := x_increment_scaled(t, n))}
            exceeded += ledger.events.get(EXCEEDS_CODE, 0)
        assert exceeded > 0

    def test_zero_delta_keeps_x(self):
        """A scholar credited only at distance 0 gets no increment under
        n > 0, and one per citation under n = 0, where every citation
        weighs 1."""
        rng = random.Random(5)
        for n in (1, 6):
            assert self.counted(rng, 2000, n, [0]).increments == {}
        counted = self.counted(rng, 2000, 0, [0])
        assert sum(counted.increments.values()) == sum(counted.events.values()) * 2 > 0

    def test_replay_equals_batch(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(0, 8)
            x: dict[int, int] = {}
            slices: dict[int, list] = {}
            for year in range(1990, 1990 + rng.randint(1, 12)):
                counted = self.counted(rng, year, n, [INF_CODE, *range(12)])
                for author, delta in counted.increments.items():
                    x[author] = x.get(author, 0) + delta
                ledger = decode_ledger(counted.records, self.STORE, {"year": year, "cap": None})
                for author, tally in ledger.scholars.items():
                    slices.setdefault(author, []).append((year, tally))
            for author, series in slices.items():
                assert Fraction(x.get(author, 0), x_scale(n)) == x_from_slices(series, n)
            assert all(delta > 0 for delta in x.values())


def tally_of(counts, infinite=0):
    """The tally of {distance code: count} and ``infinite`` unreachable
    citations, zero counts dropped."""
    tally = {d: c for d, c in counts.items() if c}
    if infinite:
        tally[INF_CODE] = infinite
    return tally


def tally_c(tally, alpha):
    """The c that an index record takes from a scholar's pooled tally."""
    return index_record("s", 2000, tally, [], Config(alpha=alpha)).c


class TestCIndex:
    def test_worked_example(self):
        assert c_index([12, 9, 7, 5, 5, 4, 3, 2, 1, 0], 1) == 5

    def test_empty(self):
        assert c_index([], 1) == 0

    def test_three_profiles_tie(self):
        inf = math.inf
        a1 = [inf, inf, inf, 12, 5, 4, 3, 2, 1, 0]
        a2 = [inf, 10, 10, 5, 5, 4, 3, 2, 1, 0]
        a3 = [5, 5, 5, 5, 5, 4, 3, 2, 1, 0]
        assert c_index(a1, 1) == c_index(a2, 1) == c_index(a3, 1) == 5

    def test_repeat_heavy_profiles_tie(self):
        ten_at_ten = [10] * 10
        assert c_index(ten_at_ten + [1] * 20, 1) == 10
        assert c_index([10] * 30, 1) == 10
        assert c_index(ten_at_ten, 1) == 10

    def test_accepts_distance_objects(self):
        assert c_index([5, INF_CODE, 1], 1) == c_index([5, math.inf, 1], 1) == 2

    def test_non_integer_alpha(self):
        assert c_index([10, 10, 10], Fraction(1, 2)) == Fraction(3, 2)

    @given(st.lists(st.one_of(st.integers(0, 40), st.just(math.inf)), max_size=40),
           st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2, 3]))
    def test_permutation_invariant(self, distances, alpha):
        rng = random.Random(0)
        shuffled = list(distances)
        rng.shuffle(shuffled)
        assert c_index(shuffled, alpha) == c_index(distances, alpha)

    @given(st.lists(st.one_of(st.integers(0, 40), st.just(math.inf)), max_size=40))
    def test_alpha_monotone(self, distances):
        alphas = [Fraction(1, 4), Fraction(1, 2), 1, 2, 4]
        values = [c_index(distances, a) for a in alphas]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))

    @given(st.integers(0, 15), st.integers(1, 60),
           st.dictionaries(st.integers(0, 15), st.integers(1, 8), max_size=10))
    def test_degenerate_when_infinite_dominates(self, d_f, extra, finite):
        finite = {d: c for d, c in finite.items() if d <= d_f}
        n_w = d_f + extra  # strictly more unreachable citations than D_f
        distances = [math.inf] * n_w + [d for d, c in finite.items() for _ in range(c)]
        assert c_index(distances, 1) == n_w

    def test_matches_fraction_formula_on_random_multisets(self):
        """The integer comparison gives the value and the type (int, or
        alpha's type) of the formula evaluated in alpha's arithmetic."""
        rng = random.Random(23)
        alphas = [1, 3, Fraction(1), Fraction(3), Fraction(1, 2), Fraction(2, 3),
                  Fraction(1, 7), Fraction(5, 3), Fraction(40, 9)]
        for _ in range(400):
            finite = {d: rng.randint(0, 6) for d in rng.sample(range(30), rng.randint(0, 8))}
            infinite = rng.choice([0, 0, 1, rng.randint(0, 40)])
            multiset = [d for d, c in finite.items() for _ in range(c)] + [math.inf] * infinite
            rng.shuffle(multiset)
            for alpha in alphas:
                expected = fraction_c_oracle(finite, infinite, alpha)
                got = c_index(multiset, alpha)
                assert got == expected and type(got) is type(expected), (finite, infinite, alpha)
                from_tally = tally_c(tally_of(finite, infinite), alpha)
                assert from_tally == expected and type(from_tally) is type(expected)

    def test_from_tally_matches_multiset(self):
        tally = tally_of({0: 3, 4: 2, 9: 1}, 2)
        multiset = [0, 0, 0, 4, 4, 9, math.inf, math.inf]
        assert tally_c(tally, 1) == c_index(multiset, 1)
        with pytest.raises(IncompleteStateError):
            tally_c({EXCEEDS_CODE: 1}, 1)


class TestHG:
    def test_h_examples(self):
        assert h_index([0, 0, 0]) == 0
        assert h_index([5, 4, 3, 2, 1]) == 3
        assert h_index([20] * 8 + [8] * 12) == 8

    def test_g_examples(self):
        assert g_index([5, 4, 3, 2, 1]) == 3
        assert g_index([0]) == 0
        assert g_index([]) == 0

    def test_g_bounded_by_paper_count(self):
        assert g_index([100]) == 1

    @given(st.lists(st.integers(0, 60), max_size=40))
    def test_g_at_least_h(self, counts):
        assert g_index(counts) >= h_index(counts)

    def test_h_brute_force(self):
        rng = random.Random(12)
        for _ in range(50):
            counts = [rng.randint(0, 30) for _ in range(rng.randint(0, 25))]
            best = 0
            for h in range(len(counts) + 1):
                if sum(1 for c in counts if c >= h) >= h:
                    best = h
            assert h_index(counts) == best

    def test_g_brute_force(self):
        rng = random.Random(13)
        for _ in range(50):
            counts = sorted((rng.randint(0, 30) for _ in range(rng.randint(0, 25))), reverse=True)
            best = 0
            for g in range(1, len(counts) + 1):
                if sum(counts[:g]) >= g * g:
                    best = g
            assert g_index(counts) == best


def series_for(profiles_by_year):
    """One scholar's yearly tallies, from {distance code: count} profiles
    (code -1 counts unreachable citations), zero counts dropped."""
    return {year: tally_of(counts) for year, counts in profiles_by_year.items()}


def pooled_tally(series):
    """The sum of the yearly tallies, as the index fold pools them."""
    pooled = Counter()
    for tally in series.values():
        pooled.update(tally)
    return dict(pooled)


class TestSnapshot:
    def test_published_profile_with_synthetic_papers(self):
        counts = {0: 20, 1: 1, 2: 4, 3: 6, 4: 19, 5: 31, 6: 121}
        pooled = pooled_tally(series_for({2018: counts}))
        per_paper = [30, 20, 15, 15, 15, 15, 10, 10] + [8] * 9  # sums to 202
        rec = index_record("s7", 2018, pooled, per_paper, Config())
        assert rec.q == 202
        assert rec.x_display == "164.00"
        assert rec.h == 8
        assert rec.g == 13
        assert sum(per_paper) == rec.q

    def test_zero_citation_scholar(self):
        rec = index_record("nobody", 2000, {}, [0, 0], Config())
        assert (rec.q, rec.h, rec.g, rec.c, rec.n_w) == (0, 0, 0, 0, 0)
        assert rec.x == 0

    def test_fields_match_single_purpose_recomputation(self):
        rng = random.Random(9)
        for _ in range(25):
            profiles = {}
            for year in range(2000, 2000 + rng.randint(1, 6)):
                profiles[year] = {
                    d: rng.randint(0, 6) for d in range(-1, rng.randint(0, 10))
                }
            series = series_for(profiles)
            last = max(profiles)
            pooled = pooled_tally(series)
            q = sum(pooled.values())
            papers = []
            remaining = q
            while remaining > 0:
                take = rng.randint(1, remaining)
                papers.append(take)
                remaining -= take
            rec = index_record("s", last, pooled, papers, Config())
            assert rec.q == q == sum(papers)
            multiset = [d for d, c in pooled.items() if d >= 0 for _ in range(c)]
            multiset += [math.inf] * pooled.get(INF_CODE, 0)
            assert rec.c == c_index(multiset, 1)
            assert rec.n_w == pooled.get(INF_CODE, 0)
            assert rec.h == h_index(papers) and rec.g == g_index(papers)
            assert rec.x == x_from_slices(series.items(), 6)
            assert 0 <= rec.x <= rec.q

    def test_requires_exact_ledgers(self):
        series = series_for({2000: {2: 1, EXCEEDS_CODE: 2}})
        with pytest.raises(IncompleteStateError):
            index_record("s", 2000, pooled_tally(series), [3], Config())


class TestIndexRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexRecord("s", 2000, q=5, h=1, g=1, c=1, n_w=0, x=Fraction(6))
        with pytest.raises(ValueError):
            IndexRecord("s", 2000, q=5, h=3, g=2, c=1, n_w=0, x=Fraction(1))
        rec = IndexRecord("s", 2000, q=5, h=1, g=2, c=3, n_w=1, x=Fraction(11, 3))
        assert rec.x_display == "3.67"
        assert rec.value("N_w") == 1
        assert rec.value("Q") == 5

    def test_csv_row(self):
        rec = IndexRecord("a9", 2018, q=202, h=8, g=13, c=72, n_w=72, x=Fraction(164))
        assert rec.csv_row() == "a9,2018,202,8,13,72,72,164.00"

    @pytest.mark.parametrize("c, shown", [
        (0, "0"), (72, "72"), (Fraction(66), "66"), (Fraction(2, 3), "0.67"),
        (Fraction(4, 3), "1.33"), (Fraction(33, 2), "16.50"), (Fraction(5, 3), "1.67"),
    ])
    def test_c_is_whole_or_two_decimals(self, c, shown):
        rec = IndexRecord("s", 2000, q=80, h=1, g=1, c=c, n_w=0, x=Fraction(1),
                          alpha=Fraction(2, 3))
        assert rec.c_display == shown
        assert rec.csv_row() == f"s,2000,80,1,1,{shown},0,1.00"
        assert rec.CSV_HEADER == "scholar,year,Q,h,g,c,N_w,x"
