"""Year-by-year pipeline: network build, distance batch, x-index update.

For each year the pipeline builds the window network, distances every
citation event of the year, credits the ledger, and advances each cited
scholar's running x by the year's weighted count.  Ledger and state
snapshots are persisted per year, so an interrupted run resumes at the
first incomplete year and replays to the same final state.

Years must be processed consecutively: the x state of year y is defined
in terms of year y-1 plus year y's ledger alone.
"""

from __future__ import annotations

import gc
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import Config
from .corpus import CorpusStore
from .distances import (
    DistanceTally,
    LedgerSeries,
    YearLedger,
    batch_year_distances,
    ensure_contiguous,
)
from .errors import IncompleteStateError, WorkspaceError
from .indices import IndexRecord, WeightConfig, index_record, x_increment_scaled
from .workspace import Workspace

log = logging.getLogger("citedist")


def _window_years(lo: int, hi: int, cfg: Config) -> list[int]:
    start = lo + cfg.window_length - 1 if cfg.strict_window else lo
    return list(range(start, hi + 1))


def planned_years(store: CorpusStore, cfg: Config) -> list[int]:
    """Years the pipeline processes: the corpus span, with the leading
    years dropped when strict windowing demands a full window."""
    return _window_years(*store.year_span(), cfg)


def workspace_years(ws: Workspace, cfg: Config) -> list[int]:
    """:func:`planned_years` of the workspace snapshot loaded with
    ``cfg``, from its meta alone."""
    return _window_years(*ws.year_span(cfg), cfg)


def year_ledger(store: CorpusStore, year: int, cfg: Config) -> YearLedger:
    """Compute one year's ledger; a year without citing papers gets an
    empty one without building its window."""
    if not any(store.paper_refs[p] for p in store.papers_in_year(year)):
        return YearLedger(year, cap=cfg.distance_cap)
    return batch_year_distances(store, year, cfg)


@dataclass
class RunResult:
    years_processed: list[int]
    years_skipped: list[int]


def run_pipeline(ws: Workspace, cfg: Config,
                 year_range: tuple[int, int] | None = None) -> RunResult:
    """Process (or resume) the yearly pipeline over the workspace corpus.

    The snapshot is loaded at the first year that is not complete, so a
    resume that finds every year complete reads only the meta and the
    artifact headers."""
    planned = workspace_years(ws, cfg)
    ws.ensure_dirs()
    cfg_hash = cfg.config_hash()
    years = planned
    if year_range is not None:
        lo, hi = year_range
        years = [y for y in years if lo <= y <= hi]
    if not years:
        return RunResult([], [])

    processed: list[int] = []
    skipped: list[int] = []
    store: CorpusStore | None = None
    states: dict[int, int] | None = None
    for year in years:
        if ws.year_complete(year, cfg_hash):
            skipped.append(year)
            states = None  # reload lazily from the last completed snapshot
            continue
        if store is None:
            store = ws.load_store(cfg)
        if states is None:
            states = _load_chain_state(ws, store, cfg_hash, year, planned[0])
        started = time.perf_counter()
        ledger = year_ledger(store, year, cfg)
        for author, tally in ledger.scholars.items():
            delta = x_increment_scaled(tally, cfg.n)
            if delta:
                states[author] = states.get(author, 0) + delta
        computed = time.perf_counter()
        ws.write_ledger(ledger, store, cfg_hash)
        ws.write_states(year, states, store, cfg, cfg_hash)
        processed.append(year)
        log.info(
            "year %d: %d citation events, %d scholars credited "
            "(compute %.2fs, write %.2fs)",
            year, ledger.events.total(), len(ledger.scholars),
            computed - started, time.perf_counter() - computed,
        )
    return RunResult(processed, skipped)


def _load_chain_state(ws: Workspace, store: CorpusStore, cfg_hash: str,
                      year: int, first_year: int) -> dict[int, int]:
    if year == first_year:
        return {}
    prior = ws.read_states(year - 1, store, cfg_hash)
    if prior is None:
        raise WorkspaceError(
            f"year {year} needs the year-{year - 1} state snapshot; "
            f"run the preceding years first"
        )
    return prior


# -- report assembly ---------------------------------------------------------


def report_years(ws: Workspace, cfg: Config, up_to_year: int) -> list[int]:
    """The config's planned years up to a year that have a completed
    ledger; ledgers that a run under another config left outside them
    are not read."""
    done = set(ws.completed_years())
    years = [y for y in workspace_years(ws, cfg) if y <= up_to_year and y in done]
    if not years:
        raise WorkspaceError("no ledgers in workspace; run the pipeline first")
    return years


def _verified(ledger: YearLedger | None, year: int) -> YearLedger:
    if ledger is None:
        raise WorkspaceError(
            f"ledger for year {year} was produced by a different configuration; re-run"
        )
    return ledger


def report_ledgers(ws: Workspace, store: CorpusStore, cfg: Config,
                   up_to_year: int) -> Iterator[YearLedger]:
    """The ledgers of :func:`report_years`, verified against the config,
    read one at a time in year order as the caller asks for them."""
    cfg_hash = cfg.config_hash()
    for year in report_years(ws, cfg, up_to_year):
        yield _verified(ws.read_ledger(year, store, cfg_hash), year)


def load_series(ws: Workspace, store: CorpusStore, cfg: Config,
                up_to_year: int) -> LedgerSeries:
    """The ledgers of :func:`report_years`, verified against the config."""
    return LedgerSeries({ledger.year: ledger
                         for ledger in report_ledgers(ws, store, cfg, up_to_year)})


def load_event_ledgers(ws: Workspace, cfg: Config, lo: int, hi: int) -> dict[int, YearLedger]:
    """The ledgers of :func:`report_years` in ``[lo, hi]``, verified
    against the config, with their events tallies only (what
    ``distance_histogram`` bins)."""
    cfg_hash = cfg.config_hash()
    return {
        year: _verified(ws.read_ledger_events(year, cfg_hash), year)
        for year in report_years(ws, cfg, hi) if year >= lo
    }


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector for the block.  Decoding and
    folding the ledgers allocates a few objects per scholar line, none of
    them in a reference cycle, so reference counting frees them all;
    left on, the collector rescans every live object some thirty times
    on a c10-size corpus, close to half of the fold's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _pool_tallies(ledgers: Iterable[YearLedger], year: int) -> dict[int, DistanceTally]:
    """Each scholar's distance counts summed over the ledgers through
    ``year``, reading each ledger once and dropping it before the next.
    After a capped ledger the rest are still read, so that a damaged one
    is reported first, as when the ledgers are read whole; a gap in the
    years is an error once a scholar has counts."""
    pooled: dict[int, DistanceTally] = {}
    years: set[int] = set()
    capped = False
    for ledger in ledgers:
        years.add(ledger.year)
        capped = capped or ledger.cap is not None
        if not capped and ledger.year <= year:
            for scholar, tally in ledger.scholars.items():
                mine = pooled.get(scholar)
                if mine is None:
                    pooled[scholar] = tally.copy()
                else:
                    mine.update(tally)
        del ledger  # free it before the next one is read
    if capped:
        raise IncompleteStateError(
            "index reports need exact distances; re-run with exact_distances = true"
        )
    if pooled:
        ensure_contiguous(years, year)
    return pooled


def build_index_records(store: CorpusStore, ledgers: Iterable[YearLedger], year: int,
                        cfg: Config) -> list[IndexRecord]:
    """Index snapshot for every scholar with at least one credited
    citation up to ``year``, in label order.  Requires exact (uncapped)
    ledgers.

    ``ledgers`` is a :class:`LedgerSeries` or a stream such as
    :func:`report_ledgers`; a stream is held one decoded ledger at a
    time.  x, Q, c and N_w come from each scholar's pooled counts."""
    with _cyclic_gc_paused():
        pooled = _pool_tallies(ledgers, year)
        wcfg = WeightConfig(n=cfg.n, alpha=cfg.alpha)
        paper_counts = store.paper_citation_counts(year)
        author_papers = store.author_papers
        labels = store.author_labels
        records = [
            index_record(labels[scholar], year, tally,
                         [paper_counts[p] for p in author_papers[scholar]], wcfg)
            for scholar, tally in pooled.items()
        ]
    records.sort(key=lambda r: r.scholar)
    return records
