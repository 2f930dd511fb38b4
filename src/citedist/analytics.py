"""Experiment harness: degeneracy statistics, repeated-citation heatmap,
cohort selection, closeness classification, rankings, and scatter data.

All operations are pure reads over index records or the corpus; any
randomness (cohort sampling, scatter sampling) is driven by an explicit
seed so runs replay exactly.

Only the heatmap searches the network, so this module imports
``collab`` inside :func:`repeated_citation_matrix`: the reports over
index records need neither the window nor the corpus code.
"""

from __future__ import annotations

import random
import statistics
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InsufficientCohortError
from .indices import IndexRecord

if TYPE_CHECKING:
    from .collab import CollabNetwork
    from .corpus import CorpusStore


# -- degeneracy --------------------------------------------------------------


class DegeneracyRow(NamedTuple):
    q_lo: int
    q_hi: int
    scholars: int
    degenerate: int  # records with c == N_w

    @property
    def ratio(self) -> float | None:
        return self.degenerate / self.scholars if self.scholars else None


def c_equals_nw_stats(records: Iterable[IndexRecord],
                      q_bin_edges: Sequence[int]) -> list[DegeneracyRow]:
    """Per citation-count bin: how many scholars have c equal to their
    infinite-citation count.  Bins are half-open [lo, hi); records must
    have been computed at alpha = 1 for the comparison to be meaningful.
    """
    if len(q_bin_edges) < 2 or any(a >= b for a, b in zip(q_bin_edges, q_bin_edges[1:])):
        raise ValueError("q_bin_edges must be strictly increasing with >= 2 entries")
    totals = [0] * (len(q_bin_edges) - 1)
    degen = [0] * (len(q_bin_edges) - 1)
    for rec in records:
        for i in range(len(q_bin_edges) - 1):
            if q_bin_edges[i] <= rec.q < q_bin_edges[i + 1]:
                totals[i] += 1
                if rec.c == rec.n_w:
                    degen[i] += 1
                break
    return [
        DegeneracyRow(q_bin_edges[i], q_bin_edges[i + 1], totals[i], degen[i])
        for i in range(len(totals))
    ]


# -- repeated citations ------------------------------------------------------


class RepeatMatrix(NamedTuple):
    repeat_labels: tuple[str, ...]
    distance_labels: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]  # cells[repeat_bin][distance_bin] = pair count
    total_citations: int  # pair-citation mass over the range
    pair_count: int


def repeated_citation_matrix(store: CorpusStore, year_range: tuple[int, int],
                             net: CollabNetwork | None = None,
                             window_length: int = 5,
                             max_repeat: int = 10,
                             max_distance: int = 12) -> RepeatMatrix:
    """Pairs of scholars binned by repeated-citation count and by their
    collaboration distance.

    Citation direction is ignored: every citation event adds one to each
    unordered (cited author, citing author) pair it connects, and a
    pair's repeat count is its total minus one.  Distances default to
    the network of the range's final year.  Repeat bins are 0..max-1
    then "max+"; distance bins 0..max then "(max+1)+" and "INF".

    Each scholar is one :meth:`BFSSearcher.distances_from` query,
    capped at ``max_distance``, to every partner with a larger id: a
    partner in another component is INF from the component labels
    alone, and the others share one ball around the scholar, each
    search stopping as soon as it meets that ball or the levels pass
    the cap ("(max+1)+").
    """
    from .collab import INF_CODE, BFSSearcher, build_window

    lo, hi = year_range
    if lo > hi:
        raise ValueError("empty year range")
    if net is None:
        net = build_window(store, hi, window_length)

    paper_authors = store.paper_authors
    partners: dict[int, dict[int, int]] = {}  # partners[a][b]: citations, a < b
    total_citations = 0
    for year in range(lo, hi + 1):
        for cited_pid, citing_pid in store.iter_citations(year):
            citing = paper_authors[citing_pid]
            pairs = {
                (m, n) if m < n else (n, m)
                for m in paper_authors[cited_pid] for n in citing if m != n
            }
            for a, b in pairs:
                counts = partners.get(a)
                if counts is None:
                    counts = partners[a] = {}
                counts[b] = counts.get(b, 0) + 1
            total_citations += len(pairs)

    repeat_labels = tuple(str(i) for i in range(max_repeat)) + (f"{max_repeat}+",)
    distance_labels = (
        tuple(str(i) for i in range(max_distance + 1)) + (f"{max_distance + 1}+", "INF")
    )
    cells = [[0] * len(distance_labels) for _ in repeat_labels]

    inf_bin = len(distance_labels) - 1
    distances_from = BFSSearcher(net).distances_from
    for a, counts in partners.items():
        codes = distances_from((a,), [(b,) for b in counts], max_distance)
        for count, code in zip(counts.values(), codes):
            if code >= 0:
                dist_bin = code
            elif code == INF_CODE:
                dist_bin = inf_bin
            else:  # EXCEEDS_CODE: a path longer than max_distance
                dist_bin = inf_bin - 1
            cells[min(count - 1, max_repeat)][dist_bin] += 1
    return RepeatMatrix(
        repeat_labels=repeat_labels,
        distance_labels=distance_labels,
        cells=tuple(tuple(row) for row in cells),
        total_citations=total_citations,
        pair_count=sum(map(len, partners.values())),
    )


# -- cohorts and closeness ---------------------------------------------------


class _CohortFields(NamedTuple):
    q_range: tuple[int, int]  # inclusive bounds on total citations
    fixed: dict | None = None  # e.g. {"h": 8, "g": 13}; None: a new empty dict
    size: int = 20
    seed: int = 0


class CohortSelection(_CohortFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.fixed is not None else self._replace(fixed={})


def select_cohort(records: Sequence[IndexRecord], sel: CohortSelection) -> list[IndexRecord]:
    """Uniform sample, without replacement, of scholars satisfying the
    Q range and the fixed-index constraints; deterministic in the seed."""
    lo, hi = sel.q_range
    candidates = [
        r for r in records
        if lo <= r.q <= hi and all(r.value(k) == v for k, v in sel.fixed.items())
    ]
    if len(candidates) < sel.size:
        raise InsufficientCohortError(sel.size, len(candidates))
    candidates.sort(key=lambda r: r.scholar)
    rng = random.Random(sel.seed)
    chosen = rng.sample(candidates, sel.size)
    chosen.sort(key=lambda r: r.scholar)
    return chosen


class PairCloseness(NamedTuple):
    scholar_a: str
    scholar_b: str
    close_a: bool  # |a - b| <= k * s under the first index
    close_b: bool


class ClosenessResult(NamedTuple):
    index_a: str
    index_b: str
    s_a: float  # population standard deviation of each index over the cohort
    s_b: float
    threshold: float
    pairs: tuple[PairCloseness, ...]

    def cell(self, scholar_a: str, scholar_b: str) -> tuple[bool, bool]:
        for p in self.pairs:
            if {p.scholar_a, p.scholar_b} == {scholar_a, scholar_b}:
                return p.close_a, p.close_b
        raise KeyError((scholar_a, scholar_b))


def classify_closeness(cohort: Sequence[IndexRecord], index_a: str, index_b: str,
                       k: float = 0.1) -> ClosenessResult:
    """Classify every unordered cohort pair as Close/Not-Close under two
    indices: a pair is Close when the values differ by at most k times
    the cohort's population standard deviation.  A zero deviation makes
    every pair Close for that index (all values coincide up to nothing
    measurable)."""
    if len(cohort) < 2:
        raise ValueError("closeness needs a cohort of at least 2")
    va = [r.value(index_a) for r in cohort]
    vb = [r.value(index_b) for r in cohort]
    s_a = statistics.pstdev(va)
    s_b = statistics.pstdev(vb)
    pairs = []
    for i in range(len(cohort)):
        for j in range(i + 1, len(cohort)):
            close_a = abs(va[i] - va[j]) <= k * s_a if s_a > 0 else True
            close_b = abs(vb[i] - vb[j]) <= k * s_b if s_b > 0 else True
            pairs.append(
                PairCloseness(cohort[i].scholar, cohort[j].scholar, close_a, close_b)
            )
    return ClosenessResult(index_a, index_b, s_a, s_b, k, tuple(pairs))


# -- rankings ----------------------------------------------------------------


class RankedRecord(NamedTuple):
    position: int
    record: IndexRecord
    value: float


def rank(records: Sequence[IndexRecord], index: str) -> list[RankedRecord]:
    """Descending ranking by one index; ties break by Q descending, then
    scholar id ascending, so positions are a deterministic permutation
    1..N."""
    if not records:
        raise ValueError("nothing to rank")
    valued = [(r.value(index), r) for r in records]
    valued.sort(key=lambda vr: (-vr[0], -vr[1].q, vr[1].scholar))
    return [
        RankedRecord(position=i, record=r, value=v)
        for i, (v, r) in enumerate(valued, 1)
    ]


# -- scatter -----------------------------------------------------------------


def x_vs_q_scatter(records: Sequence[IndexRecord], q_max: int,
                   sample_size: int, seed: int = 0) -> list[tuple[int, float]]:
    """(Q, x) sample of scholars with Q <= q_max, deterministic in the
    seed; every point satisfies x <= Q by construction of the records."""
    candidates = sorted((r for r in records if r.q <= q_max), key=lambda r: r.scholar)
    rng = random.Random(seed)
    if sample_size < len(candidates):
        chosen = rng.sample(candidates, sample_size)
    else:
        chosen = list(candidates)
    chosen.sort(key=lambda r: r.scholar)
    return [(r.q, float(r.x)) for r in chosen]
