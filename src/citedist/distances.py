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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Mapping

from .collab import (
    EXCEEDS_CODE,
    INF_CODE,
    BFSSearcher,
    CollabNetwork,
    Distance,
    build_window,
    shortest_distance,
)
from .config import Config
from .corpus import CitationEvent, CorpusStore
from .errors import IncompleteStateError


@dataclass
class DistanceTally:
    """Distance-count vector for one scholar (or one event stream)."""

    finite: dict[int, int] = field(default_factory=dict)
    infinite: int = 0
    exceeds: int = 0
    cap: int | None = None

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

    def max_finite(self) -> int | None:
        """Largest finite distance with a nonzero count (D_f); None if none."""
        return max((d for d, c in self.finite.items() if c), default=None)

    def is_exact(self) -> bool:
        return self.exceeds == 0


class YearLedger:
    """Distance counts for one citing year.

    ``scholars`` maps interned author id -> credited tally; ``events``
    tallies each citation event exactly once (used for distance
    distributions, where coauthor multiplicity must not inflate bins).
    """

    def __init__(self, year: int, cap: int | None = None):
        self.year = year
        self.cap = cap
        self.scholars: dict[int, DistanceTally] = {}
        self.events = DistanceTally(cap=cap)

    def credit(self, cited_authors: Iterable[int], code: int) -> None:
        self.events.add_code(code)
        for author in cited_authors:
            tally = self.scholars.get(author)
            if tally is None:
                tally = self.scholars[author] = DistanceTally(cap=self.cap)
            tally.add_code(code)

    def merge(self, other: "YearLedger") -> None:
        if other.year != self.year or other.cap != self.cap:
            raise ValueError("can only merge ledgers for the same year and cap")
        self.events.update(other.events)
        for author, tally in other.scholars.items():
            mine = self.scholars.get(author)
            if mine is None:
                self.scholars[author] = tally.copy()
            else:
                mine.update(tally)

    def total_credited(self) -> int:
        return sum(t.total() for t in self.scholars.values())


class LedgerSeries:
    """Ordered collection of yearly ledgers for multi-year lookups."""

    def __init__(self, ledgers: Mapping[int, YearLedger]):
        self._by_year = dict(ledgers)

    @property
    def years(self) -> list[int]:
        return sorted(self._by_year)

    def ledger(self, year: int) -> YearLedger | None:
        return self._by_year.get(year)

    def __iter__(self) -> Iterator[YearLedger]:
        """The ledgers in year order."""
        return (self._by_year[year] for year in self.years)

    def ensure_contiguous_through(self, year: int) -> None:
        ensure_contiguous(self._by_year, year)

    def year_slices(self, scholar: int, up_to_year: int) -> Iterator[tuple[int, DistanceTally]]:
        for year in self.years:
            if year > up_to_year:
                break
            tally = self._by_year[year].scholars.get(scholar)
            if tally is not None:
                yield year, tally

    def pooled_tally(self, scholar: int, up_to_year: int) -> DistanceTally:
        pooled = DistanceTally()
        for _, tally in self.year_slices(scholar, up_to_year):
            pooled.update(tally)
        return pooled


def ensure_contiguous(years: Collection[int], through: int) -> None:
    """Raise IncompleteStateError unless ``years`` holds every year from
    its first through ``through``."""
    if not years:
        raise IncompleteStateError("no ledger years available")
    missing = [y for y in range(min(years), through + 1) if y not in years]
    if missing:
        raise IncompleteStateError(f"missing ledger years: {missing}")


# -- distance computation ----------------------------------------------------


def citation_distance(net: CollabNetwork, event: CitationEvent,
                      cap: int | None = None) -> Distance:
    """Distance of one citation event on the citing year's network."""
    if net.year != event.citing_year:
        raise ValueError(
            f"network is for year {net.year}, event cites in {event.citing_year}"
        )
    return shortest_distance(net, event.citing_authors, event.cited_authors, cap)


def compute_event_distances(store: CorpusStore, net: CollabNetwork, year: int,
                            cap: int | None = None) -> list[tuple[int, int, int]]:
    """(cited paper, citing paper, distance code) for the year's events,
    in citing-paper then reference order.

    Each reference is one :meth:`BFSSearcher.pair_distance` query from
    the citing authors to the cited authors: 0 for a shared author, and
    INF_CODE at once when no cited author shares a component with a
    citing author; otherwise a bidirectional search stops as soon as the
    two sides meet.  Codes >= 0 are exact hop counts, INF_CODE means no
    path exists, EXCEEDS_CODE a path longer than ``cap``.
    """
    pair_distance = BFSSearcher(net).pair_distance
    paper_authors = store.paper_authors
    paper_refs = store.paper_refs
    out: list[tuple[int, int, int]] = []
    for pid in store.papers_in_year(year):
        citing = paper_authors[pid]
        for ref in paper_refs[pid]:
            out.append((ref, pid, pair_distance(citing, paper_authors[ref], cap)))
    return out


def batch_year_distances(store: CorpusStore, year: int, cfg: Config,
                         net: CollabNetwork | None = None) -> YearLedger:
    """Distance every citation event of ``year`` and credit the ledger.

    Uses the capped search when the configuration only needs the x-index
    (cap = n) and exact search otherwise.
    """
    if net is None:
        net = build_window(store, year, cfg.window_length)
    cap = cfg.distance_cap
    ledger = YearLedger(year, cap=cap)
    paper_authors = store.paper_authors
    for cited_pid, _citing_pid, code in compute_event_distances(store, net, year, cap):
        ledger.credit(paper_authors[cited_pid], code)
    return ledger


def paper_distance_tallies(store: CorpusStore, years: Iterable[int],
                           cfg: Config) -> dict[int, DistanceTally]:
    """Distance tallies keyed by *cited paper* over the given years.

    The per-paper view backs paper-level index computation; a scholar's
    credited counts are exactly the union of the tallies of the papers
    they authored.
    """
    cap = cfg.distance_cap
    tallies: dict[int, DistanceTally] = {}
    for year in years:
        net = build_window(store, year, cfg.window_length)
        for cited_pid, _citing_pid, code in compute_event_distances(store, net, year, cap):
            tally = tallies.get(cited_pid)
            if tally is None:
                tally = tallies[cited_pid] = DistanceTally(cap=cap)
            tally.add_code(code)
    return tallies


# -- distributions -----------------------------------------------------------


@dataclass(frozen=True)
class YearHistogram:
    year: int
    bins: tuple[tuple[str, float], ...]  # (label, proportion); labels "0".."k", ">cap", "INF"
    within_max: float
    max_bin: int
    total: int


@dataclass(frozen=True)
class HistogramResult:
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
