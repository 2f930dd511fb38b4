"""Per-year citation distances and the count ledgers built from them.

The distance of one citation event is the minimum collaboration distance
between any author of the cited paper and any author of the citing
paper, measured on the citing year's window network.  A shared author
makes it a self-citation at distance 0.  Full counting applies: every
coauthor of the cited paper is credited the whole citation at the event
distance.

Ledgers store, per scholar and per year, how many credited citations
fell at each finite distance, how many had no path at all (the infinite
bucket), and, for capped runs, how many had a path longer than the
cap.  A capped run (cap = n) is sufficient for the x-index,
whose weights saturate at n; exact runs are required for the c-index,
N_w, and the maximum finite distance.

A year is credited in one pass (``counted_ledger``): one ``Counter`` over
collision-free (scholar, distance code) keys, then one sweep over its
sorted keys, which gives each scholar's ledger line and x increment.
``run`` writes those lines as they are; ``batch_year_distances`` decodes
them into a ``YearLedger``.

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  The tallies, ledgers and histograms
need no network; the functions that search one import ``collab`` when
they are called, and ``collab`` takes the distance codes from here.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, NamedTuple

from .config import Config
from .errors import IncompleteStateError

if TYPE_CHECKING:
    from .collab import CollabNetwork
    from .corpus import CorpusStore

# Integer distance codes, as the search returns and the ledgers tally
# them: hop counts are >= 0.
INF_CODE = -1  # no path exists
EXCEEDS_CODE = -2  # a path exists and is longer than the cap


class DistanceTally:
    """Distance-count vector for one scholar (or one event stream)."""

    __slots__ = ("finite", "infinite", "exceeds", "cap")

    def __init__(self, finite: dict[int, int] | None = None, infinite: int = 0,
                 exceeds: int = 0, cap: int | None = None):
        self.finite = {} if finite is None else finite
        self.infinite = infinite
        self.exceeds = exceeds
        self.cap = cap

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return f"DistanceTally({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def copy(self) -> "DistanceTally":
        return DistanceTally(dict(self.finite), self.infinite, self.exceeds, self.cap)

    def update(self, other: "DistanceTally") -> None:
        for d, c in other.finite.items():
            self.finite[d] = self.finite.get(d, 0) + c
        self.infinite += other.infinite
        self.exceeds += other.exceeds
        if other.cap is not None:
            self.cap = other.cap if self.cap is None else min(self.cap, other.cap)

    def total(self) -> int:
        return sum(self.finite.values()) + self.infinite + self.exceeds

    def is_exact(self) -> bool:
        return self.exceeds == 0


class YearLedger:
    """Distance counts for one citing year.

    ``scholars`` maps interned author id -> credited tally; ``events``
    tallies each citation event exactly once (used for distance
    distributions, where coauthor multiplicity must not inflate bins).
    ``records_sha256`` is the record digest of the artifact a ledger was
    decoded from, None for one computed or read from an unstamped text.
    """

    def __init__(self, year: int, cap: int | None = None):
        self.year = year
        self.cap = cap
        self.records_sha256: str | None = None
        self.scholars: dict[int, DistanceTally] = {}
        self.events = DistanceTally(cap=cap)



def pool_into(pooled: dict[int, DistanceTally], tallies: Mapping[int, DistanceTally]) -> None:
    """Add each tally of ``tallies`` to the tally of its key in ``pooled``,
    which holds a copy of it for a key it lacked."""
    for key, tally in tallies.items():
        mine = pooled.get(key)
        if mine is None:
            pooled[key] = tally.copy()
        else:
            mine.update(tally)


def ensure_contiguous(years: Collection[int], through: int) -> None:
    """Raise IncompleteStateError unless ``years`` holds every year from
    its first through ``through``."""
    if not years:
        raise IncompleteStateError("no ledger years available")
    missing = [y for y in range(min(years), through + 1) if y not in years]
    if missing:
        raise IncompleteStateError(f"missing ledger years: {missing}")


# -- distance computation ----------------------------------------------------


def compute_event_distances(store: CorpusStore, net: CollabNetwork, year: int,
                            cap: int | None = None) -> list[tuple[int, int, int]]:
    """(cited paper, citing paper, distance code) for the year's events,
    in citing-paper then reference order.

    Each citing paper is one :meth:`BFSSearcher.distances_from` query
    from its authors to the author tuple of each reference: 0 for a
    shared author, and INF_CODE at once when no cited author shares a
    component with a citing author; the other references share one
    ball around the citing authors, which grows only as far as the
    nearest cited author of some reference needs.  Codes >= 0 are exact
    hop counts, INF_CODE means no path exists, EXCEEDS_CODE a path
    longer than ``cap``.
    """
    from .collab import BFSSearcher

    distances_from = BFSSearcher(net).distances_from
    paper_authors = store.paper_authors
    paper_refs = store.paper_refs
    out: list[tuple[int, int, int]] = []
    for pid in store.papers_in_year(year):
        refs = paper_refs[pid]
        if refs:
            codes = distances_from(paper_authors[pid], [paper_authors[r] for r in refs], cap)
            out.extend(zip(refs, [pid] * len(refs), codes))
    return out


class CountedLedger(NamedTuple):
    """One computed year's ledger as ``run`` writes it (see
    :func:`counted_ledger`)."""

    year: int
    cap: int | None
    events: DistanceTally
    credited: int  # how many scholars were credited
    records: str  # the record lines: the events line, then one per scholar
    increments: dict[int, int]  # author id -> x increment in units of 1/x_scale(n), if not 0


def counted_ledger(store: CorpusStore, year: int, events: list[tuple[int, int, int]],
                   cap: int | None, n: int) -> CountedLedger:
    """Credit ``events``, the year's (cited, citing, code) triples, to
    every author of each cited paper.

    One ``Counter`` counts the key ``author * stride + code + 2`` of every
    credit, where ``stride`` exceeds the largest ``code + 2``, so each
    key names one (scholar, code).  The sorted keys run by author id,
    and one sweep over them gives each scholar's ledger line
    (``codec.scholar_line``) and x increment, each count weighed by
    ``indices.scaled_weight``.  Raises ValueError, as
    ``indices.x_increment_scaled`` does, when a distance is capped below n.
    """
    from .codec import events_line, scholar_line
    from .indices import require_cap, scaled_weight

    codes = Counter([code for _cited, _citing, code in events])
    unreached, exceeded = codes.pop(INF_CODE, 0), codes.pop(EXCEEDS_CODE, 0)
    tally = DistanceTally(dict(codes), unreached, exceeded, cap)
    require_cap(tally, n)  # every scholar's tally exceeds only where this one does
    stride = max(codes, default=0) + 3
    paper_authors = store.paper_authors
    credits = Counter(author * stride + code + 2
                      for cited, _citing, code in events for author in paper_authors[cited])
    labels = store.json_labels
    lines = [events_line(tally)]
    increments: dict[int, int] = {}
    for author, keys in groupby(sorted(credits), stride.__rfloordiv__):
        base = author * stride + 2
        counts = []
        infinite = exceeds = xn = 0
        for key in keys:
            count, code = credits[key], key - base
            xn += scaled_weight(code, n) * count
            if code >= 0:
                counts.append(f'"{code}":{count}')
            elif code == INF_CODE:
                infinite = count
            else:
                exceeds = count
        if code >= 10:  # the keys sort as strings: "10" < "2" (``codec.tally_counts``)
            counts.sort()
        lines.append(scholar_line(labels[author], ",".join(counts), infinite, exceeds))
        if xn:
            increments[author] = xn
    return CountedLedger(year, cap, tally, len(lines) - 1, "".join(lines), increments)


def batch_year_distances(store: CorpusStore, year: int, cfg: Config,
                         net: CollabNetwork | None = None) -> YearLedger:
    """Distance every citation event of ``year`` and credit the ledger:
    the ledger that ``run`` writes for the year, decoded.

    Uses the capped search when the configuration only needs the x-index
    (cap = n) and exact search otherwise.
    """
    from .codec import decode_ledger

    if net is None:
        from .collab import build_window

        net = build_window(store, year, cfg.window_length)
    cap = cfg.distance_cap
    counted = counted_ledger(store, year, compute_event_distances(store, net, year, cap),
                             cap, cfg.n)
    return decode_ledger(counted.records, store, {"year": year, "cap": cap})


# -- distributions -----------------------------------------------------------


class YearHistogram(NamedTuple):
    year: int
    bins: tuple[tuple[str, float], ...]  # (label, proportion); labels "0".."k", ">cap", "INF"
    within_max: float
    max_bin: int
    total: int


class HistogramResult(NamedTuple):
    per_year: dict[int, YearHistogram]
    notices: list[str]

    def csv_rows(self) -> list[str]:
        rows = ["year,distance,proportion"]
        for year in sorted(self.per_year):
            hist = self.per_year[year]
            for label, proportion in hist.bins:
                rows.append(f"{year},{label},{proportion:.6f}")
            rows.append(f"{year},<={hist.max_bin},{hist.within_max:.6f}")
        return rows


def distance_histogram(ledgers: Mapping[int, YearLedger],
                       years: Iterable[int], max_bin: int = 12) -> HistogramResult:
    """Per-year distribution of event distances, infinite bucket included.

    Proportions over all bins sum to 1; ``within_max`` is the share of
    citations at finite distance <= ``max_bin``.  Years without
    citations are omitted with a notice.
    """
    per_year: dict[int, YearHistogram] = {}
    notices: list[str] = []
    for year in years:
        ledger = ledgers.get(year)
        total = ledger.events.total() if ledger is not None else 0
        if total == 0:
            notices.append(f"year {year}: no citations; omitted")
            continue
        tally = ledger.events
        bins: list[tuple[str, float]] = []
        within = 0
        for d in sorted(tally.finite):
            count = tally.finite[d]
            if count:
                bins.append((str(d), count / total))
                if d <= max_bin:
                    within += count
        if tally.exceeds:
            bins.append((f">{tally.cap}", tally.exceeds / total))
        if tally.infinite:
            bins.append(("INF", tally.infinite / total))
        per_year[year] = YearHistogram(
            year=year,
            bins=tuple(bins),
            within_max=within / total,
            max_bin=max_bin,
            total=total,
        )
    return HistogramResult(per_year=per_year, notices=notices)
