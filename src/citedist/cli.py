"""Command-line entry point.

Subcommands: ingest, run, report, validate.  Exit codes: 0 success,
1 usage error, 2 data error (a lossy ingestion, an unwritable --out),
3 incomplete workspace (a prerequisite stage has not run), a damaged
artifact or one written for another corpus, or a workspace locked by
another stage, 141 stdout closed early (a broken pipe).

Light layer: no module-level import of ``collab``, ``corpus`` or
``analytics`` (see ``citedist``).  Each command imports the modules it
runs when it runs, and only ``run`` configures ``logging``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import INDEX_NAMES, Config, load_config
from .errors import CiteDistError, IncompleteStateError, WorkspaceError
from .workspace import Workspace


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error.  ``check(args)``, when given, returns
    the usage error of a parsed command line that no single argument's
    type can see, or None."""

    def __init__(self, *args, check=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.check = check

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        problem = self.check(namespace) if self.check else None
        if problem:
            self.error(problem)
        return namespace, extras

    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _years_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected YEAR or YEAR:YEAR, got {text!r}")
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"year range {text!r} is empty")
    return lo_i, hi_i


def _int_at_least(least: int):
    """An argument type: an integer no less than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


_count = _int_at_least(0)


def _bin_edges(text: str) -> list[int]:
    try:
        edges = [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise argparse.ArgumentTypeError(
            f"expected at least 2 strictly increasing edges, got {text!r}")
    return edges


def _report_check(args) -> str | None:
    if args.name == "closeness" and args.size < 2:
        return f"argument --size: closeness needs a cohort of at least 2, got {args.size}"
    return None


def _fix_pair(text: str) -> tuple[str, int]:
    key, _, value = text.partition("=")
    if key not in INDEX_NAMES:
        raise argparse.ArgumentTypeError(f"unknown index {key!r} (choose from {INDEX_NAMES})")
    try:
        return key, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INDEX=INT, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="citedist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="key = value config file (defaults apply when omitted)")

    p = sub.add_parser("validate", parents=[common],
                       help="parse a corpus and print the validation summary")
    p.add_argument("input", type=Path)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse a corpus and persist the workspace snapshot")
    p.add_argument("input", type=Path)
    p.add_argument("--workspace", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", parents=[common],
                       help="run (or resume) the yearly distance/index pipeline")
    p.add_argument("--workspace", type=Path, required=True)
    p.add_argument("--years", type=_years_pair, default=None, metavar="A:B")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="N",
                   help="compute the years in up to N contiguous blocks, each in its own "
                        "process pinned to its own CPU (at most one per CPU this process "
                        "may use); outputs are byte-identical for any N")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", parents=[common], help="emit a CSV report",
                       check=_report_check)
    p.add_argument("name", choices=REPORT_NAMES, metavar="NAME",
                   help=f"one of: {', '.join(REPORT_NAMES)}")
    p.add_argument("--workspace", type=Path, required=True)
    p.add_argument("--year", type=int, default=None)
    p.add_argument("--years", type=_years_pair, default=None, metavar="A:B")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--with-diameter", action="store_true")
    p.add_argument("--max-bin", type=_count, default=12)
    p.add_argument("--index", choices=INDEX_NAMES, default="x")
    p.add_argument("--index-a", choices=INDEX_NAMES, default="c")
    p.add_argument("--index-b", choices=INDEX_NAMES, default="x")
    p.add_argument("--bins", type=_bin_edges, default="50,200,400,600,800",
                   help="comma-separated Q bin edges for c-eq-nw")
    p.add_argument("--q-min", type=int, default=190)
    p.add_argument("--q-max", type=int, default=210)
    p.add_argument("--fix", type=_fix_pair, action="append", default=[],
                   metavar="INDEX=VALUE", help="cohort constraint, repeatable")
    p.add_argument("--size", type=_count, default=20,
                   help="cohort size (closeness, >= 2) or sample size (scatter)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=float, default=0.1, help="closeness threshold factor")
    p.add_argument("--net-year", type=int, default=None,
                   help="heatmap: year of the distance network (default: range end)")
    p.add_argument("--max-repeat", type=_count, default=10)
    p.add_argument("--max-distance", type=_count, default=12)
    p.set_defaults(func=cmd_report)
    return parser


def _load_cfg(args) -> Config:
    if args.config is None:
        return Config()
    return load_config(args.config)


def cmd_validate(args) -> int:
    from .corpus import load_corpus

    cfg = _load_cfg(args)
    store = load_corpus(args.input, cfg)
    s = store.summary
    print(f"{s.papers} papers, {s.authors} authors, {s.citations} citations")
    print(s.as_text())
    return 2 if s.skipped_lines else 0


def cmd_ingest(args) -> int:
    from .corpus import load_corpus

    cfg = _load_cfg(args)
    store = load_corpus(args.input, cfg)
    ws = Workspace(args.workspace)
    ws.ensure_dirs()
    with ws.lock():
        ws.write_corpus(store, cfg)
    s = store.summary
    print(f"{s.papers} papers, {s.authors} authors, {s.citations} citations")
    print(s.as_text())
    print(f"workspace: {ws.root}")
    return 2 if s.skipped_lines else 0


def cmd_run(args) -> int:
    import logging

    from .pipeline import run_pipeline

    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    cfg = _load_cfg(args)
    ws = Workspace(args.workspace)
    with ws.lock():
        result = run_pipeline(ws, cfg, year_range=args.years, jobs=args.jobs)
    print(f"processed {len(result.years_processed)} years, "
          f"skipped {len(result.years_skipped)} already complete")
    return 0


def cmd_report(args) -> int:
    ws = Workspace(args.workspace)
    with ws.lock(shared=True):
        return _report(args, ws)


def _network_stats(args, ws: Workspace, cfg: Config, span, year: int):
    from .collab import build_window, network_report

    net = build_window(ws.load_store(cfg), year, cfg.window_length)
    stats = network_report(net, with_diameter=args.with_diameter)
    return [stats.CSV_HEADER, stats.csv_row(year)], {
        "year": year, "with_diameter": args.with_diameter}


def _edges(args, ws: Workspace, cfg: Config, span, year: int):
    from .collab import build_window

    store = ws.load_store(cfg)
    net = build_window(store, year, cfg.window_length)
    labels = store.author_labels
    pairs = sorted(sorted((labels[u], labels[v])) for u, v in net.edges())
    return ["author_a,author_b", *(f"{a},{b}" for a, b in pairs)], {"year": year}


def _distance_histogram(args, ws: Workspace, cfg: Config, span, year: int):
    """Bins the ledgers' events lines; needs no store."""
    from .distances import distance_histogram
    from .pipeline import load_event_ledgers, workspace_years

    planned = workspace_years(ws, cfg)
    lo, hi = args.years if args.years else (planned[0] if planned else 0, year)
    ledgers = load_event_ledgers(ws, cfg, lo, hi)
    result = distance_histogram(ledgers, range(lo, hi + 1), args.max_bin)
    for notice in result.notices:
        print(notice, file=sys.stderr)
    return result.csv_rows(), {"years": [lo, hi], "max_bin": args.max_bin}


def _heatmap(args, ws: Workspace, cfg: Config, span, year: int):
    from .analytics import repeated_citation_matrix
    from .collab import build_window

    store = ws.load_store(cfg)
    lo, hi = args.years if args.years else span
    net_year = args.net_year if args.net_year is not None else hi
    net = build_window(store, net_year, cfg.window_length)
    matrix = repeated_citation_matrix(
        store, (lo, hi), net=net,
        max_repeat=args.max_repeat, max_distance=args.max_distance,
    )
    rows = ["repeats,distance,pairs"]
    for i, rlabel in enumerate(matrix.repeat_labels):
        for j, dlabel in enumerate(matrix.distance_labels):
            rows.append(f"{rlabel},{dlabel},{matrix.cells[i][j]}")
    return rows, {
        "years": [lo, hi], "net_year": net_year,
        "max_repeat": args.max_repeat, "max_distance": args.max_distance,
        "pairs": matrix.pair_count, "total_citations": matrix.total_citations,
    }


def _index_report(table):
    """The report of ``table(args, records)`` over the index records at
    the report year (which need exact ledgers)."""

    def report(args, ws: Workspace, cfg: Config, span, year: int):
        from .pipeline import index_records

        rows, params = table(args, index_records(ws, cfg, year))
        return rows, {"year": year, **params}

    return report


@_index_report
def _index_table(args, records):
    from .indices import IndexRecord

    return [IndexRecord.CSV_HEADER, *(r.csv_row() for r in records)], {}


@_index_report
def _rank(args, records):
    from .analytics import rank

    display = {"c": "c_display", "x": "x_display"}.get(args.index)  # as index-table prints
    rows = [f"rank,scholar,{args.index},Q"]
    rows.extend(
        f"{r.position},{r.record.scholar},"
        f"{getattr(r.record, display) if display else r.value},{r.record.q}"
        for r in (rank(records, args.index) if records else ())  # none credited: header only
    )
    return rows, {"index": args.index}


@_index_report
def _c_eq_nw(args, records):
    from .analytics import c_equals_nw_stats

    rows = ["q_lo,q_hi,scholars,degenerate,ratio"]
    for row in c_equals_nw_stats(records, args.bins):
        ratio = "" if row.ratio is None else f"{row.ratio:.4f}"
        rows.append(f"{row.q_lo},{row.q_hi},{row.scholars},{row.degenerate},{ratio}")
    return rows, {"bins": args.bins}


@_index_report
def _scatter(args, records):
    from .analytics import x_vs_q_scatter

    points = x_vs_q_scatter(records, args.q_max, args.size, args.seed)
    return ["Q,x", *(f"{q},{x:.2f}" for q, x in points)], {
        "q_max": args.q_max, "size": args.size}


@_index_report
def _closeness(args, records):
    from .analytics import CohortSelection, classify_closeness, select_cohort

    sel = CohortSelection(
        q_range=(args.q_min, args.q_max), fixed=dict(args.fix),
        size=args.size, seed=args.seed,
    )
    cohort = select_cohort(records, sel)
    result = classify_closeness(cohort, args.index_a, args.index_b, args.k)
    rows = [f"scholar_a,scholar_b,{args.index_a}_close,{args.index_b}_close"]
    rows.extend(f"{p.scholar_a},{p.scholar_b},{p.close_a},{p.close_b}" for p in result.pairs)
    return rows, {
        "index_a": args.index_a, "index_b": args.index_b, "k": args.k, "size": args.size,
        "q_range": [args.q_min, args.q_max], "fixed": dict(args.fix),
        "s_a": result.s_a, "s_b": result.s_b, "cohort": [r.scholar for r in cohort],
    }


# Each report returns its CSV rows and the params of its manifest, given
# the config's year span and the report year (``--year``, else the span's
# last year).  Only the reports that use it import ``citedist.analytics``.
REPORTS = {
    "network-stats": _network_stats,
    "distance-histogram": _distance_histogram,
    "index-table": _index_table,
    "rank": _rank,
    "c-eq-nw": _c_eq_nw,
    "heatmap": _heatmap,
    "scatter": _scatter,
    "closeness": _closeness,
    "edges": _edges,
}
REPORT_NAMES = tuple(REPORTS)


def _report(args, ws: Workspace) -> int:
    cfg = _load_cfg(args)
    span = ws.year_span(cfg)
    year = args.year if args.year is not None else span[1]
    rows, params = REPORTS[args.name](args, ws, cfg, span, year)
    manifest = {
        "report": args.name,
        "config": cfg.config_hash(),
        "corpus_sha256": ws.corpus_hash(),
        "seed": args.seed,
        "params": params,
    }
    path = ws.write_report(args.name, rows, manifest, out=args.out)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away.  Point stdout at /dev/null so
        # that the flush at exit cannot raise again, and exit as a
        # process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (WorkspaceError, IncompleteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CiteDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
