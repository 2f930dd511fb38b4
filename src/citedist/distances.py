"""Per-year citation distances and the count ledgers built from them.

The distance of one citation event is the minimum collaboration distance
between any author of the cited paper and any author of the citing
paper, measured on the citing year's window network.  A shared author
makes it a self-citation at distance 0.  Full counting applies: every
coauthor of the cited paper is credited the whole citation at the event
distance.

Ledgers store, per scholar and per year, a tally: a plain dict from
distance code to its nonzero count of credited citations.  A code is a
hop count (>= 0), INF_CODE for a citation with no path at all (the
infinite bucket) or, in capped runs, EXCEEDS_CODE for one with a path
longer than the cap.  The cap is a property of the ledger, not of its
tallies.  A capped run (cap = n) is sufficient for the x-index, whose
weights saturate at n; exact runs are required for the c-index, N_w,
and the maximum finite distance.

A year is credited in one pass (``counted_ledger``), which builds each
credited scholar's tally, then one sweep in author-id order gives each
scholar's ledger line and x increment.  ``run`` writes those lines as
they are; ``batch_year_distances`` decodes them into a ``YearLedger``.
The codes are defined in ``codec``, the one module that maps them to
the ``counts``, ``infinite`` and ``exceeds`` keys of a ledger line.
The pooling and the histogram take the ledgers they are given:
``pipeline.report_years`` checks that a report's years are all there.

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  The tallies, ledgers and histograms
need no network; the functions that search one import ``collab`` when
they are called, and ``collab`` takes the distance codes from here.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .codec import EXCEEDS_CODE, INF_CODE
from .config import Config

if TYPE_CHECKING:
    from .collab import CollabNetwork
    from .corpus import CorpusStore

class YearLedger:
    """Distance counts for one citing year.

    ``scholars`` maps interned author id -> credited tally; ``events``
    tallies each citation event exactly once (used for distance
    distributions, where coauthor multiplicity must not inflate bins).
    Each tally maps a distance code to its nonzero count.
    ``records_sha256`` is the record digest of the artifact a ledger was
    decoded from, None for one computed or read from an unstamped text.
    """

    def __init__(self, year: int, cap: int | None = None):
        self.year = year
        self.cap = cap
        self.records_sha256: str | None = None
        self.scholars: dict[int, dict[int, int]] = {}
        self.events: dict[int, int] = {}


def pool_into(pooled: dict[int, dict[int, int]],
              tallies: Mapping[int, Mapping[int, int]]) -> None:
    """Add each tally of ``tallies`` to the tally of its key in ``pooled``,
    which holds a copy of it for a key it lacked."""
    for key, tally in tallies.items():
        mine = pooled.get(key)
        if mine is None:
            pooled[key] = dict(tally)
        else:
            for code, count in tally.items():
                mine[code] = mine.get(code, 0) + count


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
    events: dict[int, int]  # the tally of the year's events
    credited: int  # how many scholars were credited
    records: str  # the record lines: the events line, then one per scholar
    increments: dict[int, int]  # author id -> x increment in units of 1/x_scale(n), if not 0


def counted_ledger(store: CorpusStore, year: int, events: list[tuple[int, int, int]],
                   cap: int | None, n: int) -> CountedLedger:
    """Credit ``events``, the year's (cited, citing, code) triples, to
    every author of each cited paper: one pass builds each credited
    scholar's tally, and one sweep in author-id order gives each its
    ledger line (``codec.scholar_line``) and x increment
    (``indices.x_increment_scaled``).  Raises ValueError when a distance
    is capped below n, since its weight is then unknown.
    """
    from .codec import events_line, scholar_line
    from .indices import x_increment_scaled

    codes = Counter([code for _cited, _citing, code in events])
    if EXCEEDS_CODE in codes and (cap is None or cap < n):
        raise ValueError(f"distances capped below n={n} have no known weight; "
                         f"recompute with cap >= n or exact")
    paper_authors = store.paper_authors
    tallies: dict[int, dict[int, int]] = {}
    for cited, _citing, code in events:
        for author in paper_authors[cited]:
            tally = tallies.get(author)
            if tally is None:
                tallies[author] = {code: 1}
            else:
                tally[code] = tally.get(code, 0) + 1
    labels = store.json_labels
    lines = [events_line(codes)]
    increments: dict[int, int] = {}
    for author in sorted(tallies):
        tally = tallies[author]
        lines.append(scholar_line(labels[author], tally))
        if xn := x_increment_scaled(tally, n):
            increments[author] = xn
    return CountedLedger(year, cap, codes, len(tallies), "".join(lines), increments)


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
        tally = {} if ledger is None else ledger.events
        total = sum(tally.values())
        if total == 0:
            notices.append(f"year {year}: no citations; omitted")
            continue
        bins: list[tuple[str, float]] = []
        within = 0
        for d in sorted(d for d in tally if d >= 0):
            count = tally[d]
            if count:
                bins.append((str(d), count / total))
                if d <= max_bin:
                    within += count
        if exceeds := tally.get(EXCEEDS_CODE):
            bins.append((f">{ledger.cap}", exceeds / total))
        if infinite := tally.get(INF_CODE):
            bins.append(("INF", infinite / total))
        per_year[year] = YearHistogram(
            year=year,
            bins=tuple(bins),
            within_max=within / total,
            max_bin=max_bin,
            total=total,
        )
    return HistogramResult(per_year=per_year, notices=notices)
