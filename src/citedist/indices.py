"""Scholar indices: distance-weighted x-index, c-index, h-index, g-index.

A citation at finite distance d gets weight d/n for d <= n and weight 1
beyond (n = 0 uses the 0/0 = 1 convention, so the x-index degenerates to
the plain citation count).  Unreachable citations weigh 1.  The x-index
is the weighted citation total, maintained incrementally: the value for
year y is the value for year y-1 plus the weighted count of year y's
citations, so only the current year's distances ever need to be stored.

All x arithmetic is exact (``fractions.Fraction``; every weight is a
multiple of 1/n), which makes incremental replay, one-shot batch
computation, and per-paper accumulation agree to the last bit.  Reports
render x with 2 decimals.

The c-index sorts a scholar's citation distances in decreasing order
(unreachable counts as larger than every finite distance) and takes
max over ranks v of min(alpha * v, d_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .collab import Distance
from .distances import DistanceTally, LedgerSeries
from .errors import IncompleteStateError, SequencingError


@dataclass(frozen=True)
class WeightConfig:
    """Knobs of the index computations (threshold n, c-index slope)."""

    n: int = 6
    alpha: Fraction = Fraction(1)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def x_scale(n: int) -> int:
    """Denominator of every x value under threshold n (1 when n = 0)."""
    return n if n > 0 else 1


def _as_hops(d) -> float:
    """Normalize a distance argument to an int hop count or math.inf."""
    if isinstance(d, Distance):
        if d.is_finite:
            return d.hops
        if d.is_infinite:
            return math.inf
        raise ValueError("distance exceeding a cap has no exact value")
    if d == math.inf:
        return math.inf
    if isinstance(d, bool) or not isinstance(d, int):
        raise TypeError(f"distance must be an int, math.inf, or Distance, got {d!r}")
    if d < 0:
        raise ValueError("distance must be >= 0")
    return d


def weight(d, n: int) -> Fraction:
    """Weight of one citation at distance ``d`` under threshold ``n``.

    ``d`` may be an int, ``math.inf``, or a :class:`Distance`.  A capped
    Distance is acceptable only when its cap is >= n (the weight is then
    known to be 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(d, Distance) and d.exceeds_cap:
        if d.cap >= n:
            return Fraction(1)
        raise ValueError(f"distance only known to exceed {d.cap}; weight under n={n} undetermined")
    hops = _as_hops(d)
    if n == 0:
        return Fraction(1)  # 0/0 = 1: every citation counts fully
    if hops >= n:
        return Fraction(1)
    return Fraction(int(hops), n)


def x_increment_scaled(tally: DistanceTally, n: int) -> int:
    """Year increment of the x-index, in units of 1/x_scale(n)."""
    if tally.exceeds and (tally.cap is None or tally.cap < n):
        raise ValueError(
            f"tally holds distances capped below n={n}; recompute with cap >= n or exact"
        )
    if n == 0:
        return tally.total()
    acc = 0
    for d, count in tally.finite.items():
        acc += (d if d < n else n) * count
    acc += n * (tally.infinite + tally.exceeds)
    return acc


def x_increment(tally: DistanceTally, n: int) -> Fraction:
    """Weighted citation count of one year slice for one scholar."""
    return Fraction(x_increment_scaled(tally, n), x_scale(n))


def x_from_slices(slices: Iterable[tuple[int, DistanceTally]], n: int) -> Fraction:
    """One-shot x over yearly slices; identical arithmetic to the replay."""
    total = 0
    for _, tally in slices:
        total += x_increment_scaled(tally, n)
    return Fraction(total, x_scale(n))


@dataclass(frozen=True)
class ScholarIndexState:
    """Running x-index for one scholar after the given year's batch."""

    scholar: int | str
    year: int
    x: Fraction

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be >= 0")


def update_x(state: ScholarIndexState, year: int, delta: Fraction) -> ScholarIndexState:
    """Advance a scholar's state by one year: x grows by the year's
    weighted citation count.  Years must be applied consecutively."""
    if year != state.year + 1:
        raise SequencingError(
            f"state is at year {state.year}, cannot apply year {year}"
        )
    if delta < 0:
        raise ValueError("yearly increment cannot be negative")
    return ScholarIndexState(state.scholar, year, state.x + delta)


# -- classic indices ---------------------------------------------------------


def h_index(citation_counts: Iterable[int]) -> int:
    """Largest h such that at least h papers have >= h citations."""
    ranked = sorted(citation_counts, reverse=True)
    h = 0
    for i, c in enumerate(ranked, 1):
        if c >= i:
            h = i
        else:
            break
    return h


def g_index(citation_counts: Iterable[int]) -> int:
    """Largest g such that the g most-cited papers have >= g^2 citations
    in total; g never exceeds the number of papers."""
    ranked = sorted(citation_counts, reverse=True)
    g = 0
    running = 0
    for i, c in enumerate(ranked, 1):
        running += c
        if running >= i * i:
            g = i
    return g


def _c_from_counts(finite: dict[int, int], infinite: int, alpha) -> Fraction | int | float:
    best = 0
    v = infinite
    if v:
        best = alpha * v  # min(alpha * v, INFINITE) = alpha * v
    for d in sorted((d for d, c in finite.items() if c), reverse=True):
        v += finite[d]
        candidate = min(alpha * v, d)
        if candidate > best:
            best = candidate
    return best


def c_index(distances: Iterable, alpha=1):
    """c-index of a citation-distance multiset at slope ``alpha``.

    Accepts ints, ``math.inf``, and :class:`Distance` values in any
    order; 0 for the empty multiset.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    finite: dict[int, int] = {}
    infinite = 0
    for d in distances:
        hops = _as_hops(d)
        if hops == math.inf:
            infinite += 1
        else:
            finite[hops] = finite.get(hops, 0) + 1
    return _c_from_counts(finite, infinite, alpha)


def c_index_from_tally(tally: DistanceTally, alpha=1):
    if not tally.is_exact():
        raise ValueError("c-index needs exact distances; tally contains capped counts")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return _c_from_counts(tally.finite, tally.infinite, alpha)


# -- snapshots ---------------------------------------------------------------


@dataclass(frozen=True)
class IndexRecord:
    """One scholar's full index snapshot at a given year."""

    scholar: str
    year: int
    q: int
    h: int
    g: int
    c: int | float | Fraction
    n_w: int
    x: Fraction
    alpha: Fraction = Fraction(1)

    CSV_HEADER = "scholar,year,Q,h,g,c,N_w,x"

    def __post_init__(self):
        if not (0 <= self.x <= self.q):
            raise ValueError(f"x={self.x} outside [0, Q={self.q}]")
        if self.h > self.g:
            raise ValueError(f"h={self.h} exceeds g={self.g}")
        if self.n_w > self.q:
            raise ValueError(f"N_w={self.n_w} exceeds Q={self.q}")
        if self.alpha <= 1 and self.c > self.q:
            raise ValueError(f"c={self.c} exceeds Q={self.q} at alpha<=1")

    @property
    def x_display(self) -> str:
        return f"{float(self.x):.2f}"

    def value(self, index: str):
        """Look an index value up by its report name (Q, h, g, c, N_w, x)."""
        key = {"Q": "q", "N_w": "n_w"}.get(index, index)
        try:
            v = getattr(self, key)
        except AttributeError:
            raise KeyError(f"unknown index {index!r}") from None
        return float(v) if isinstance(v, Fraction) else v

    def csv_row(self) -> str:
        return (
            f"{self.scholar},{self.year},{self.q},{self.h},{self.g},"
            f"{self.c},{self.n_w},{self.x_display}"
        )


def scholar_snapshot(scholar: int | str, year: int, ledgers: LedgerSeries,
                     per_paper_counts: Sequence[int], cfg: WeightConfig,
                     label: str | None = None) -> IndexRecord:
    """Assemble Q, h, g, c, N_w, and x for one scholar from the same
    underlying events.

    ``ledgers`` must cover every year from its first through ``year``;
    exact (uncapped) ledgers are required because c-index and N_w need
    true distances.  ``per_paper_counts`` are the citation counts of the
    scholar's papers up to the same year.
    """
    ledgers.ensure_contiguous_through(year)
    pooled = ledgers.pooled_tally(scholar, year)
    if not pooled.is_exact():
        raise IncompleteStateError(
            "snapshot needs exact distances; ledgers were computed with a cap"
        )
    x = x_from_slices(ledgers.year_slices(scholar, year), cfg.n)
    return IndexRecord(
        scholar=label if label is not None else str(scholar),
        year=year,
        q=pooled.total(),
        h=h_index(per_paper_counts),
        g=g_index(per_paper_counts),
        c=c_index_from_tally(pooled, cfg.alpha),
        n_w=pooled.infinite,
        x=x,
        alpha=Fraction(cfg.alpha),
    )
