"""Year-by-year pipeline: network build, distance batch, x-index fold.

For each year the pipeline builds the window network, distances every
citation event of the year and credits the year's ledger in one counted
sweep, which also gives each credited scholar's x increment.  A
scholar's x is a sum over the yearly ledgers, so it is not carried from
year to year: a run adds the increments of every planned ledger into
one x snapshot, written after the last planned year; a ledger computed
before is read back and folded instead.  An interrupted run resumes at
the years whose ledger is missing and writes the same snapshot.

Since a year needs only its window, ``run --jobs N`` splits the years
into contiguous blocks and computes all but the first in forked
workers, each pinned to its own CPU; a worker writes its own ledgers
and sends back only its block's x increments, which the run process
adds before it writes the snapshot.

A report reads the ledgers of ``report_years``, every planned year
through the report year, and stops before it reads one, naming the
missing years, unless each has a ledger; the folds take what they get.

The run's year loop and the index folds allocate many objects and make
no reference cycles, so each runs inside one guard,
``_cyclic_gc_paused``, that keeps the cyclic collector off until it
ends, however it ends.

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  ``run_pipeline`` imports the window
code, the ledger types and ``logging`` once it has work and
``workers`` only when it forks; each report function imports what it
folds, so a resume that finds every year complete compiles none of
them.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, TypeVar

from .config import Config
from .errors import IncompleteStateError, WorkspaceError
from .workspace import Workspace

if TYPE_CHECKING:
    from .collab import CollabNetwork
    from .corpus import CorpusStore
    from .distances import CountedLedger, YearLedger
    from .indices import IndexRecord

_T = TypeVar("_T")


def workspace_years(ws: Workspace, cfg: Config) -> list[int]:
    """Years the pipeline processes: the span of the workspace snapshot
    loaded with ``cfg``, from its meta alone, with the leading years
    dropped when strict windowing demands a full window."""
    lo, hi = ws.year_span(cfg)
    start = lo + cfg.window_length - 1 if cfg.strict_window else lo
    return list(range(start, hi + 1))


def year_ledger(store: CorpusStore, year: int, cfg: Config, net: CollabNetwork) -> CountedLedger:
    """Compute one year's ledger on ``net``, the year's window, with the
    x increments of its scholars; a year without citing papers gets the
    empty ledger."""
    from .distances import compute_event_distances, counted_ledger

    cap = cfg.distance_cap
    return counted_ledger(store, year, compute_event_distances(store, net, year, cap), cap, cfg.n)


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector for the block.  Loading the
    store, building windows, decoding and folding the ledgers, or
    decoding an index snapshot allocates many objects, none of them in a
    reference cycle, so reference counting frees them all; left on, the
    collector rescans every live object again and again (some thirty
    times in a c10-size fold, close to half of its time)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class RunResult(NamedTuple):
    years_processed: list[int]
    years_skipped: list[int]


def run_pipeline(ws: Workspace, cfg: Config,
                 year_range: tuple[int, int] | None = None, jobs: int = 1) -> RunResult:
    """Process (or resume) the yearly pipeline over the workspace corpus.

    A year is complete once its ledger is, so the years to compute are
    found first, from the artifact headers.  Each gets its window from
    ``collab.build_window``, slid from the previous year's network when
    that year was computed just before.  When the years reach the last
    planned year, the x snapshot of that year is written, unless no year
    was computed and it is complete: every planned ledger folded, those
    computed as they are made and the others read back first (a missing
    one stops the run before any year is computed).  The store is
    loaded, with the cyclic collector paused (``_cyclic_gc_paused``),
    only when there is a year to compute or a snapshot to write.  A
    year's log line splits its time into the window build, the search
    and the counted credit with the x increments ("compute"), and the
    ledger write.

    With ``jobs`` above 1, the years to compute are split into
    contiguous blocks of about equal citation count, at most ``jobs``,
    one per CPU of the process's affinity set and one per year; all
    blocks but the first go to forked workers (``workers.run_blocks``).
    Each process slides its own window through its block and writes
    its own ledgers, so every artifact is byte-identical to a serial
    run's.
    With ``jobs`` 1 the years are computed in this process, in order."""
    planned = workspace_years(ws, cfg)
    ws.ensure_dirs()
    years = planned
    if year_range is not None:
        lo, hi = year_range
        years = [y for y in years if lo <= y <= hi]
    if not years:
        return RunResult([], [])

    todo = [y for y in years if not ws.year_complete(y, cfg)]
    skipped = [y for y in years if y not in todo]
    last = planned[-1]
    write_x = years[-1] == last and bool(todo or not ws.states_complete(last, cfg))
    if not write_x and not todo:
        return RunResult([], skipped)

    import logging

    from .collab import build_window
    from .indices import x_increment_scaled

    log = logging.getLogger("citedist")
    xs: dict[int, int] = {}

    def compute(block: list[int], into: dict[int, int]) -> None:
        net: CollabNetwork | None = None
        for year in block:
            started = time.perf_counter()
            net = build_window(store, year, cfg.window_length, net)
            built = time.perf_counter()
            ledger = year_ledger(store, year, cfg, net)
            for author, delta in ledger.increments.items():
                into[author] = into.get(author, 0) + delta
            computed = time.perf_counter()
            ws.write_ledger(ledger, store, cfg)
            log.info(
                "year %d: %d citation events, %d scholars credited "
                "(window %.2fs, compute %.2fs, write %.2fs)",
                year, sum(ledger.events.values()), ledger.credited,
                built - started, computed - built, time.perf_counter() - computed,
            )

    with _cyclic_gc_paused():
        store = ws.load_store(cfg)
        if write_x:
            for year in planned:
                if year not in todo:
                    ledger = ws.read_ledger(year, store, cfg)
                    if ledger is None:
                        raise WorkspaceError(
                            f"the year-{last} x snapshot needs the year-{year} ledger; "
                            f"run the preceding years first"
                        )
                    for author, tally in ledger.scholars.items():
                        if delta := x_increment_scaled(tally, cfg.n):
                            xs[author] = xs.get(author, 0) + delta
        parts = 1 if jobs == 1 else min(jobs, len(os.sched_getaffinity(0)), len(todo))
        if parts > 1:
            from .workers import run_blocks, split_blocks

            refs = store.paper_refs
            citations = [sum(len(refs[p]) for p in store.papers_in_year(y)) for y in todo]
            run_blocks(split_blocks(todo, citations, parts), compute, xs)
        else:
            compute(todo, xs)
        if write_x:
            ws.write_states(last, xs, store, cfg)
    return RunResult(todo, skipped)


# -- report assembly ---------------------------------------------------------


def report_years(ws: Workspace, cfg: Config, up_to_year: int,
                 lo: int | None = None) -> list[int]:
    """The config's planned years from ``lo`` (default: the first planned
    year) through ``up_to_year``, the ledgers a report reads.  A fold of
    only some of them would be wrong, so IncompleteStateError names every
    one without a ledger.  Ledgers that a run under another config left
    outside the plan are not read."""
    done = set(ws.completed_years())
    planned = workspace_years(ws, cfg)
    if done.isdisjoint(planned):
        raise WorkspaceError("no ledgers in workspace; run the pipeline first")
    if planned[0] > up_to_year:
        raise WorkspaceError(
            f"no ledger for year {up_to_year} or earlier; the ledgers start at {planned[0]}")
    years = [y for y in planned if (lo is None or lo <= y) and y <= up_to_year]
    if missing := [y for y in years if y not in done]:
        raise IncompleteStateError(f"missing ledger years: {missing}")
    return years


def _verified(ledger: _T | None, year: int) -> _T:
    if ledger is None:
        raise WorkspaceError(
            f"ledger for year {year} was produced by a different configuration; re-run"
        )
    return ledger


def report_ledgers(ws: Workspace, store: CorpusStore, cfg: Config, up_to_year: int,
                   digests: list[str] | None = None) -> Iterator[YearLedger]:
    """The ledgers of :func:`report_years`, verified against the config,
    read one at a time in year order as the caller asks for them.  The
    ``records_sha256`` of each is appended to ``digests`` when given."""
    for year in report_years(ws, cfg, up_to_year):
        ledger = _verified(ws.read_ledger(year, store, cfg), year)
        if digests is not None:
            digests.append(ledger.records_sha256)
        yield ledger
        del ledger  # free it before the next one is read


def load_event_ledgers(ws: Workspace, cfg: Config, lo: int, hi: int) -> dict[int, YearLedger]:
    """The ledgers of :func:`report_years` from ``lo`` through ``hi``,
    verified against the config, with their events tallies only (what
    ``distance_histogram`` bins)."""
    return {year: _verified(ws.read_ledger_events(year, cfg), year)
            for year in report_years(ws, cfg, hi, lo)}


def _pool_tallies(ledgers: Iterable[YearLedger], year: int) -> dict[int, dict[int, int]]:
    """Each scholar's distance counts summed over the ledgers through
    ``year``, reading each ledger once and dropping it before the next.
    After a capped ledger the rest are still read, so that a damaged one
    is reported first, as when the ledgers are read whole."""
    from .distances import pool_into

    pooled: dict[int, dict[int, int]] = {}
    capped = False
    for ledger in ledgers:
        capped = capped or ledger.cap is not None
        if not capped and ledger.year <= year:
            pool_into(pooled, ledger.scholars)
        del ledger  # free it before the next one is read
    if capped:
        raise IncompleteStateError(
            "index reports need exact distances; re-run with exact_distances = true"
        )
    return pooled


def build_index_records(store: CorpusStore, ledgers: Iterable[YearLedger], year: int,
                        cfg: Config) -> list[IndexRecord]:
    """Index snapshot for every scholar with at least one credited
    citation up to ``year``, in label order.  Requires exact (uncapped)
    ledgers.

    ``ledgers`` is any iterable of year ledgers, such as the stream of
    :func:`report_ledgers`, which holds one decoded ledger at a time.
    x, Q, c and N_w come from each scholar's pooled counts; h and g from
    the citations through ``year`` of the scholar's papers published
    through ``year``, so that a later paper does not count as one more
    paper.  It folds what it is given: :func:`report_ledgers` guarantees
    that no year is missing."""
    from .indices import index_record

    with _cyclic_gc_paused():
        pooled = _pool_tallies(ledgers, year)
        paper_counts = store.paper_citation_counts(year)
        paper_year = store.paper_year
        author_papers = store.author_papers
        labels = store.author_labels
        records = [
            index_record(labels[scholar], year, tally,
                         [paper_counts[p] for p in author_papers[scholar]
                          if paper_year[p] <= year], cfg)
            for scholar, tally in pooled.items()
        ]
    records.sort(key=lambda r: r.scholar)
    return records


def index_records(ws: Workspace, cfg: Config, year: int) -> list[IndexRecord]:
    """:func:`build_index_records` at ``year`` over the ledgers of
    :func:`report_years`, kept in the workspace's index snapshot of the
    year.  When the snapshot exists, every ledger is first checked whole
    (config, corpus stamp and record digest) without being decoded; if
    the snapshot was folded from exactly these ledgers under ``cfg``, its
    records are returned and neither the store nor any ledger is decoded.
    Otherwise the records are folded from the store and the ledgers, each
    read once and checked whole as it is read, and the snapshot is
    written with the digests of those reads.  A missing year raises first."""
    planned = workspace_years(ws, cfg)
    if planned and year > planned[-1]:
        raise WorkspaceError(f"year {year} is after the last planned year, {planned[-1]}")
    if ws.index_path(year).exists():
        digests = [_verified(ws.ledger_digest(y, cfg), y)
                   for y in report_years(ws, cfg, year)]
        with _cyclic_gc_paused():
            records = ws.read_indices(year, cfg, digests)
        if records is not None:
            return records
    store = ws.load_store(cfg)
    digests = []
    records = build_index_records(store, report_ledgers(ws, store, cfg, year, digests),
                                  year, cfg)
    del store  # its memory then holds the encoded snapshot
    ws.write_indices(year, records, cfg, digests)
    return records
