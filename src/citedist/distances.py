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

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  The tallies, ledgers and histograms
need no network; the functions that search one import ``collab`` when
they are called, and ``collab`` takes the distance codes from here.
"""

from __future__ import annotations

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

    def add_code(self, code: int, count: int = 1) -> None:
        if code >= 0:
            self.finite[code] = self.finite.get(code, 0) + count
        elif code == INF_CODE:
            self.infinite += count
        else:
            self.exceeds += count

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

    def credit(self, cited_authors: Iterable[int], code: int) -> None:
        self.events.add_code(code)
        for author in cited_authors:
            tally = self.scholars.get(author)
            if tally is None:
                tally = self.scholars[author] = DistanceTally(cap=self.cap)
            tally.add_code(code)



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


def batch_year_distances(store: CorpusStore, year: int, cfg: Config,
                         net: CollabNetwork | None = None) -> YearLedger:
    """Distance every citation event of ``year`` and credit the ledger.

    Uses the capped search when the configuration only needs the x-index
    (cap = n) and exact search otherwise.
    """
    if net is None:
        from .collab import build_window

        net = build_window(store, year, cfg.window_length)
    cap = cfg.distance_cap
    ledger = YearLedger(year, cap=cap)
    paper_authors = store.paper_authors
    for cited_pid, _citing_pid, code in compute_event_distances(store, net, year, cap):
        ledger.credit(paper_authors[cited_pid], code)
    return ledger


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
