"""Span tracing of ``citedist`` layers from outside the package.

:class:`Tracer` wraps public functions and methods of the package with
spans while it is active and restores them afterwards.  A module-level
function is replaced at every module that bound it by name (``from
.collab import build_window``), so calls through any binding are seen.
Spans nest: a span's self time is its duration minus the time its child
spans cover.  Counts are taken from arguments and return values after
the span has ended, and that bookkeeping is charged to no span.

A hook whose target no longer resolves (a function renamed or deleted)
is skipped, and the layer metrics it feeds are absent from the results.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``module`` and dotted ``attr`` (``Class.method``)."""

    span: str
    module: str
    attr: str
    count: Callable | None = None  # count(counts, args, kwargs, result)


def _count_store(counts, args, kwargs, store):
    counts["corpus.papers"] += store.summary.papers
    counts["corpus.citations"] += store.summary.citations


def _count_window(counts, args, kwargs, net):
    counts["collab.windows"] += 1
    counts["collab.window_edges"] += net.edge_count


def _count_bfs(counts, args, kwargs, result):
    targets = kwargs.get("targets", args[2] if len(args) > 2 else ())
    counts["collab.bfs_calls"] += 1
    counts["collab.bfs_found"] += len(result[0])
    if isinstance(targets, (set, frozenset, list, tuple)):
        counts["collab.bfs_asked"] += len(set(targets))


def _count_events(counts, args, kwargs, codes):
    for _cited, _citing, code in codes:
        if code >= 0:
            counts["distances.finite"] += 1
        elif code == -1:
            counts["distances.infinite"] += 1
        else:
            counts["distances.exceeds"] += 1
    counts["distances.events"] += len(codes)


def _count_ledger_write(counts, args, kwargs, _result):
    ws, ledger = args[0], args[1]
    counts["workspace.ledger_bytes"] += ws.ledger_path(ledger.year).stat().st_size


def _count_state_write(counts, args, kwargs, _result):
    ws, year, states = args[0], args[1], args[2]
    counts["workspace.state_bytes"] += ws.state_path(year).stat().st_size
    counts["workspace.state_lines"] += 1 + sum(1 for v in states.values() if v)


def _count_records(counts, args, kwargs, records):
    counts["indices.scholars"] += len(records)


def _count_pairs(counts, args, kwargs, matrix):
    counts["analytics.pairs"] += matrix.pair_count


# Each span feeds the layer metrics named in ``LAYER_SPANS`` / ``LAYER_COUNTS``.
HOOKS = (
    Hook("corpus.parse", "citedist.corpus", "parse_records", _count_store),
    Hook("workspace.corpus_write", "citedist.workspace", "Workspace.write_corpus"),
    Hook("collab.build_window", "citedist.collab", "build_window", _count_window),
    Hook("collab.bfs", "citedist.collab", "BFSSearcher.distances_to", _count_bfs),
    Hook("distances.search", "citedist.distances", "compute_event_distances", _count_events),
    Hook("pipeline.year_ledger", "citedist.pipeline", "year_ledger"),
    Hook("pipeline.run", "citedist.pipeline", "run_pipeline"),
    Hook("workspace.ledger_write", "citedist.workspace", "Workspace.write_ledger",
         _count_ledger_write),
    Hook("workspace.state_write", "citedist.workspace", "Workspace.write_states",
         _count_state_write),
    Hook("workspace.ledger_read", "citedist.workspace", "Workspace.read_ledger"),
    Hook("workspace.state_read", "citedist.workspace", "Workspace.read_states"),
    Hook("indices.records", "citedist.pipeline", "build_index_records", _count_records),
    Hook("analytics.heatmap", "citedist.analytics", "repeated_citation_matrix", _count_pairs),
    Hook("collab.network_report", "citedist.collab", "network_report"),
    Hook("workspace.report_write", "citedist.workspace", "Workspace.write_report"),
)

# layer metric -> (span, "total" or "self") time in seconds
LAYER_SPANS = {
    "corpus.parse_s": ("corpus.parse", "total"),
    "workspace.corpus_write_s": ("workspace.corpus_write", "total"),
    "collab.build_window_s": ("collab.build_window", "total"),
    "collab.bfs_s": ("collab.bfs", "total"),
    "distances.search_s": ("distances.search", "total"),
    "distances.credit_s": ("pipeline.year_ledger", "self"),
    "pipeline.fold_s": ("pipeline.run", "self"),
    "workspace.ledger_write_s": ("workspace.ledger_write", "total"),
    "workspace.state_write_s": ("workspace.state_write", "total"),
    "workspace.ledger_read_s": ("workspace.ledger_read", "total"),
    "workspace.state_read_s": ("workspace.state_read", "total"),
    "indices.records_s": ("indices.records", "total"),
    "analytics.heatmap_s": ("analytics.heatmap", "total"),
    "collab.network_report_s": ("collab.network_report", "total"),
    "workspace.report_write_s": ("workspace.report_write", "total"),
}

# layer metric -> span whose hook produces the count
LAYER_COUNTS = {
    "corpus.papers": "corpus.parse",
    "corpus.citations": "corpus.parse",
    "collab.windows": "collab.build_window",
    "collab.window_edges": "collab.build_window",
    "collab.bfs_calls": "collab.bfs",
    "distances.events": "distances.search",
    "distances.finite": "distances.search",
    "distances.infinite": "distances.search",
    "distances.exceeds": "distances.search",
    "workspace.ledger_bytes": "workspace.ledger_write",
    "workspace.state_bytes": "workspace.state_write",
    "workspace.state_lines": "workspace.state_write",
    "indices.scholars": "indices.records",
    "analytics.pairs": "analytics.heatmap",
}


def _resolve(hook: Hook):
    """(owner, name, original) for a hook, or None when it does not resolve."""
    try:
        owner = importlib.import_module(hook.module)
        *path, name = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    return (owner, name, original) if callable(original) else None


class Tracer:
    """Span statistics per (step, span); use as a context manager."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.step = ""
        self.total = defaultdict(float)  # (step, span) -> seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # counter name -> value, over all steps
        self.resolved: set[str] = set()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, hook: Hook, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - started
                key = (tracer.step, hook.span)
                tracer.total[key] += took
                tracer.self_time[key] += took - stack.pop()
                if stack:
                    stack[-1] += took
            if hook.count is not None:
                started = clock()
                hook.count(tracer.counts, args, kwargs, result)
                if stack:  # keep counting out of the parent's self time
                    stack[-1] += clock() - started
            return result

        return span

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "citedist" or name.startswith("citedist."))]
        for hook in self.hooks:
            found = _resolve(hook)
            if found is None:
                continue
            owner, name, original = found
            wrapped = self._wrap(hook, original)
            self.resolved.add(hook.span)
            if isinstance(owner, type):
                self._undo.append((owner, name, original))
                setattr(owner, name, wrapped)
                continue
            for module in modules:  # every binding of a module-level function
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def span_seconds(self, span: str, kind: str = "total", step: str | None = None) -> float:
        table = self.total if kind == "total" else self.self_time
        return sum(v for (s, name), v in table.items()
                   if name == span and (step is None or s == step))

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric whose hook resolved, summed over all steps."""
        out: dict[str, float] = {}
        for metric, (span, kind) in LAYER_SPANS.items():
            if span in self.resolved:
                out[metric] = self.span_seconds(span, kind)
        for metric, span in LAYER_COUNTS.items():
            if span in self.resolved:
                out[metric] = self.counts[metric]
        if "collab.bfs" in self.resolved:
            asked = self.counts["collab.bfs_asked"]
            out["collab.bfs_found_ratio"] = self.counts["collab.bfs_found"] / asked if asked else 0.0
        return out


def import_package(src: Path):
    """Import ``citedist`` from ``src`` and make sure it is that copy."""
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("citedist.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"citedist resolved to {cli.__file__}, not under {src}")
    return cli
