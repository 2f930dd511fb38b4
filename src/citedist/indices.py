"""Scholar indices: distance-weighted x-index, c-index, h-index, g-index.

A citation at finite distance d gets weight d/n for d <= n and weight 1
beyond (n = 0 uses the 0/0 = 1 convention, so the x-index degenerates to
the plain citation count).  Unreachable citations weigh 1.  The x-index
is the weighted citation total: the value for year y is the value for
year y-1 plus the weighted count of year y's citations, so it is a sum
over the yearly ledgers.

Every weight is a multiple of 1/n, so x is kept as an exact integer in
units of 1/x_scale(n).  ``scaled_weight`` is the one statement of that
rule, per distance code; ``x_increment_scaled`` sums it over a tally,
a dict from distance code (a hop count, ``codec.INF_CODE`` or
``codec.EXCEEDS_CODE``) to count, and :func:`weight` divides it by
x_scale(n).  The sum is linear in the counts, so the x that ``run``
folds from the ledgers into its snapshot, the x that
``distances.counted_ledger`` gives each credited scholar of a computed
year, and the x an index report takes from a scholar's pooled tally
agree to the last bit.  ``fractions.Fraction`` appears only where a
value leaves as an :class:`IndexRecord` (and in :func:`weight`).
Reports render x with 2 decimals.

The c-index sorts a scholar's citation distances in decreasing order
(unreachable counts as larger than every finite distance) and takes
max over ranks v of min(alpha * v, d_v), comparing in integers; it
reads the tally's ``INF_CODE`` count as the unreachable ones.

Light layer: no import of ``collab``, ``corpus``, ``analytics`` or
``distances``, not even inside a function (see ``citedist``), so that
an index report served from a snapshot compiles none of them.  Every
distance these functions take is a ``codec`` code or ``math.inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .codec import EXCEEDS_CODE, INF_CODE, x_scale
from .errors import IncompleteStateError

if TYPE_CHECKING:
    from .config import Config


def _as_code(d) -> int:
    """The distance code of a distance argument: an int hop count,
    ``INF_CODE`` or ``math.inf`` (no path).  ``EXCEEDS_CODE`` raises
    ValueError: a distance known only to exceed a cap has no value of
    its own (``distances.counted_ledger`` weighs it under the ledger's
    cap)."""
    if d == math.inf:
        return INF_CODE
    if isinstance(d, bool) or not isinstance(d, int):
        raise TypeError(f"distance must be an int or math.inf, got {d!r}")
    if d < 0 and d != INF_CODE:
        raise ValueError(f"distance must be >= 0 or INF_CODE, got {d}")
    return d


def weight(d, n: int) -> Fraction:
    """Weight of one citation at distance ``d`` under threshold ``n``:
    ``d`` is a hop count, ``INF_CODE`` or ``math.inf``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(scaled_weight(_as_code(d), n), x_scale(n))


def scaled_weight(code: int, n: int) -> int:
    """The weight of one citation at distance code ``code``, in units of
    1/x_scale(n): min(d, n) for a hop count d, n for an unreachable or
    capped one, and 1 for every citation when n = 0."""
    if n == 0:
        return 1
    return code if 0 <= code < n else n


def x_increment_scaled(tally: Mapping[int, int], n: int) -> int:
    """Year increment of the x-index, in units of 1/x_scale(n), of a
    tally (distance code -> count) whose capped codes have cap >= n."""
    acc = 0
    for code, count in tally.items():
        acc += scaled_weight(code, n) * count
    return acc


def x_increment(tally: Mapping[int, int], n: int) -> Fraction:
    """Weighted citation count of one year slice for one scholar."""
    return Fraction(x_increment_scaled(tally, n), x_scale(n))


def x_from_slices(slices: Iterable[tuple[int, Mapping[int, int]]], n: int) -> Fraction:
    """One-shot x over yearly slices: the sum of their scaled increments."""
    return Fraction(sum(x_increment_scaled(tally, n) for _, tally in slices), x_scale(n))


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


def _c_from_counts(tally: Mapping[int, int], alpha) -> Fraction | int | float:
    """max over ranks v of min(alpha * v, d_v) of an exact tally,
    compared in integers.

    With alpha = p/q, alpha * v <= d exactly when p * v <= d * q.  Walking
    the distances downwards, alpha * v grows while d_v falls, so the
    maximum is at the step where d_v first becomes the smaller side, or
    the step before it.  The result is ``alpha * v`` (alpha's type) when
    that side wins or ties, else the int distance; 0 when empty.
    """
    p, q = alpha.as_integer_ratio()
    v = best_v = tally.get(INF_CODE, 0)  # min(alpha * v, inf) = alpha * v
    for d in sorted((d for d, c in tally.items() if d >= 0 and c), reverse=True):
        v += tally[d]
        if p * v <= d * q:
            best_v = v
        elif d * q > p * best_v:
            return d
        else:
            break
    return alpha * best_v if best_v else 0


def c_index(distances: Iterable, alpha=1):
    """c-index of a citation-distance multiset at slope ``alpha``.

    Accepts hop counts, ``INF_CODE`` and ``math.inf`` in any order; 0
    for the empty multiset.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    tally: dict[int, int] = {}
    for d in distances:
        code = _as_code(d)
        tally[code] = tally.get(code, 0) + 1
    return _c_from_counts(tally, alpha)


# -- snapshots ---------------------------------------------------------------


class _RecordFields(NamedTuple):
    scholar: str
    year: int
    q: int
    h: int
    g: int
    c: int | float | Fraction
    n_w: int
    x: Fraction
    alpha: Fraction = Fraction(1)


class IndexRecord(_RecordFields):
    """One scholar's full index snapshot at a given year."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too
    CSV_HEADER = "scholar,year,Q,h,g,c,N_w,x"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Compared as integer ratios: a Fraction compares with an int
        # several times slower, and an index snapshot holds 10^5 records.
        q = self.q
        x_num, x_den = self.x.as_integer_ratio()
        if not (0 <= x_num <= q * x_den):
            raise ValueError(f"x={self.x} outside [0, Q={self.q}]")
        if self.h > self.g:
            raise ValueError(f"h={self.h} exceeds g={self.g}")
        if self.n_w > q:
            raise ValueError(f"N_w={self.n_w} exceeds Q={self.q}")
        a_num, a_den = self.alpha.as_integer_ratio()
        if a_num <= a_den:
            c_num, c_den = self.c.as_integer_ratio()
            if c_num > q * c_den:
                raise ValueError(f"c={self.c} exceeds Q={self.q} at alpha<=1")
        return self

    @property
    def x_display(self) -> str:
        return f"{float(self.x):.2f}"

    @property
    def c_display(self) -> str:
        """c as an integer when it is whole, else with 2 decimals like x."""
        c = self.c
        return str(int(c)) if c == int(c) else f"{float(c):.2f}"

    def value(self, index: str):
        """Look an index value up by its report name (Q, h, g, c, N_w, x)."""
        key = {"Q": "q", "N_w": "n_w"}.get(index, index)
        if key not in self._fields:  # a tuple method is no index
            raise KeyError(f"unknown index {index!r}")
        v = getattr(self, key)
        # numerator / denominator is float(v), without the slower generic path
        return v.numerator / v.denominator if isinstance(v, Fraction) else v

    def csv_row(self) -> str:
        return (
            f"{self.scholar},{self.year},{self.q},{self.h},{self.g},"
            f"{self.c_display},{self.n_w},{self.x_display}"
        )


def index_record(label: str, year: int, pooled: Mapping[int, int],
                 per_paper_counts: Sequence[int], cfg: Config) -> IndexRecord:
    """Q, h, g, c, N_w and x of one scholar from the exact tally
    ``pooled`` over all years through ``year``, with ``cfg``'s
    threshold n and c-index slope alpha.  x is the scaled
    increment of the pooled counts, which equals the sum over the year
    slices because the increment is linear in the counts."""
    if EXCEEDS_CODE in pooled:
        raise IncompleteStateError(
            "snapshot needs exact distances; ledgers were computed with a cap"
        )
    return IndexRecord(
        scholar=label,
        year=year,
        q=sum(pooled.values()),
        h=h_index(per_paper_counts),
        g=g_index(per_paper_counts),
        c=_c_from_counts(pooled, cfg.alpha),
        n_w=pooled.get(INF_CODE, 0),
        x=Fraction(x_increment_scaled(pooled, cfg.n), x_scale(cfg.n)),
        alpha=Fraction(cfg.alpha),
    )
