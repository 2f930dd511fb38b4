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

import logging
import time
from dataclasses import dataclass

from .config import Config
from .corpus import CorpusStore
from .distances import LedgerSeries, YearLedger, batch_year_distances
from .errors import IncompleteStateError, WorkspaceError
from .indices import IndexRecord, WeightConfig, scholar_snapshot, x_increment_scaled
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


def load_series(ws: Workspace, store: CorpusStore, cfg: Config,
                up_to_year: int) -> LedgerSeries:
    """The ledgers of :func:`report_years`, verified against the config."""
    cfg_hash = cfg.config_hash()
    return LedgerSeries({
        year: _verified(ws.read_ledger(year, store, cfg_hash), year)
        for year in report_years(ws, cfg, up_to_year)
    })


def load_event_ledgers(ws: Workspace, cfg: Config, lo: int, hi: int) -> dict[int, YearLedger]:
    """The ledgers of :func:`report_years` in ``[lo, hi]``, verified
    against the config, with their events tallies only (what
    ``distance_histogram`` bins)."""
    cfg_hash = cfg.config_hash()
    return {
        year: _verified(ws.read_ledger_events(year, cfg_hash), year)
        for year in report_years(ws, cfg, hi) if year >= lo
    }


def build_index_records(store: CorpusStore, series: LedgerSeries, year: int,
                        cfg: Config) -> list[IndexRecord]:
    """Index snapshot for every scholar with at least one credited
    citation up to ``year``.  Requires exact (uncapped) ledgers."""
    if not series.is_exact():
        raise IncompleteStateError(
            "index reports need exact distances; re-run with exact_distances = true"
        )
    wcfg = WeightConfig(n=cfg.n, alpha=cfg.alpha)
    paper_counts = store.paper_citation_counts(year)
    records = []
    for scholar in sorted(series.scholars(year)):
        per_paper = [paper_counts[p] for p in store.author_papers[scholar]]
        records.append(
            scholar_snapshot(
                scholar, year, series, per_paper, wcfg,
                label=store.author_labels[scholar],
            )
        )
    records.sort(key=lambda r: r.scholar)
    return records
