"""Command-line entry point.

Subcommands: ingest, run, report, validate.  Exit codes: 0 success,
1 usage error, 2 data error (including lossy ingestion), 3 incomplete
workspace (a prerequisite stage has not run), a damaged artifact or one
written for another corpus, or a workspace locked by another stage,
141 stdout closed early (a broken pipe).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .analytics import (
    INDEX_NAMES,
    CohortSelection,
    c_equals_nw_stats,
    classify_closeness,
    rank,
    repeated_citation_matrix,
    select_cohort,
    x_vs_q_scatter,
)
from .collab import build_window, network_report
from .config import Config, ConfigError, load_config
from .corpus import load_corpus
from .distances import distance_histogram
from .errors import (
    CiteDistError,
    IncompleteStateError,
    IngestError,
    InsufficientCohortError,
    SequencingError,
    WorkspaceError,
)
from .pipeline import (
    build_index_records,
    load_event_ledgers,
    report_ledgers,
    run_pipeline,
    workspace_years,
)
from .workspace import Workspace

REPORT_NAMES = (
    "network-stats",
    "distance-histogram",
    "index-table",
    "rank",
    "c-eq-nw",
    "heatmap",
    "scatter",
    "closeness",
    "edges",
)


class _Parser(argparse.ArgumentParser):
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


def _bin_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="accepted for compatibility and ignored: years always run serially")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", parents=[common], help="emit a CSV report")
    p.add_argument("name", choices=REPORT_NAMES, metavar="NAME",
                   help=f"one of: {', '.join(REPORT_NAMES)}")
    p.add_argument("--workspace", type=Path, required=True)
    p.add_argument("--year", type=int, default=None)
    p.add_argument("--years", type=_years_pair, default=None, metavar="A:B")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--with-diameter", action="store_true")
    p.add_argument("--max-bin", type=_bin_count, default=12)
    p.add_argument("--index", choices=INDEX_NAMES, default="x")
    p.add_argument("--index-a", choices=INDEX_NAMES, default="c")
    p.add_argument("--index-b", choices=INDEX_NAMES, default="x")
    p.add_argument("--bins", default="50,200,400,600,800",
                   help="comma-separated Q bin edges for c-eq-nw")
    p.add_argument("--q-min", type=int, default=190)
    p.add_argument("--q-max", type=int, default=210)
    p.add_argument("--fix", type=_fix_pair, action="append", default=[],
                   metavar="INDEX=VALUE", help="cohort constraint, repeatable")
    p.add_argument("--size", type=int, default=20, help="cohort / sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=float, default=0.1, help="closeness threshold factor")
    p.add_argument("--net-year", type=int, default=None,
                   help="heatmap: year of the distance network (default: range end)")
    p.add_argument("--max-repeat", type=_bin_count, default=10)
    p.add_argument("--max-distance", type=_bin_count, default=12)
    p.set_defaults(func=cmd_report)
    return parser


def _load_cfg(args) -> Config:
    if args.config is None:
        return Config()
    return load_config(args.config)


def cmd_validate(args) -> int:
    cfg = _load_cfg(args)
    store = load_corpus(args.input, cfg)
    s = store.summary
    print(f"{s.papers} papers, {s.authors} authors, {s.citations} citations")
    print(s.as_text())
    return 2 if s.skipped_lines else 0


def cmd_ingest(args) -> int:
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
    cfg = _load_cfg(args)
    ws = Workspace(args.workspace)
    with ws.lock():
        result = run_pipeline(ws, cfg, year_range=args.years)
    print(f"processed {len(result.years_processed)} years, "
          f"skipped {len(result.years_skipped)} already complete")
    return 0


def _report_year(args, span: tuple[int, int]) -> int:
    """``--year``, else the last year of the snapshot under the report's
    config (which may narrow the ingested span)."""
    if args.year is not None:
        return args.year
    return span[1]


def cmd_report(args) -> int:
    ws = Workspace(args.workspace)
    with ws.lock(shared=True):
        return _report(args, ws)


def _report(args, ws: Workspace) -> int:
    cfg = _load_cfg(args)
    name = args.name
    span = ws.year_span(cfg)
    # The histogram bins the ledgers' events lines and needs no store.
    store = None if name == "distance-histogram" else ws.load_store(cfg)
    manifest = {
        "report": args.name,
        "config": cfg.config_hash(),
        "corpus_sha256": ws.corpus_hash(),
        "seed": args.seed,
    }

    if name == "network-stats":
        year = _report_year(args, span)
        net = build_window(store, year, cfg.window_length)
        stats = network_report(net, with_diameter=args.with_diameter)
        rows = [stats.CSV_HEADER, stats.csv_row(year)]
        manifest["params"] = {"year": year, "with_diameter": args.with_diameter}

    elif name == "edges":
        year = _report_year(args, span)
        net = build_window(store, year, cfg.window_length)
        rows = ["author_a,author_b"]
        labels = store.author_labels
        pairs = sorted((labels[u], labels[v]) for u, v in net.edges())
        rows.extend(f"{a},{b}" for a, b in pairs)
        manifest["params"] = {"year": year}

    elif name == "distance-histogram":
        planned = workspace_years(ws, cfg)
        lo, hi = args.years if args.years else (planned[0] if planned else 0,
                                                _report_year(args, span))
        ledgers = load_event_ledgers(ws, cfg, lo, hi)
        result = distance_histogram(ledgers, range(lo, hi + 1), args.max_bin)
        for notice in result.notices:
            print(notice, file=sys.stderr)
        rows = result.csv_rows()
        manifest["params"] = {"years": [lo, hi], "max_bin": args.max_bin}

    elif name == "heatmap":
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
        manifest["params"] = {
            "years": [lo, hi], "net_year": net_year,
            "max_repeat": args.max_repeat, "max_distance": args.max_distance,
            "pairs": matrix.pair_count, "total_citations": matrix.total_citations,
        }

    else:  # index-derived reports need exact ledgers
        year = _report_year(args, span)
        records = build_index_records(store, report_ledgers(ws, store, cfg, year), year, cfg)
        manifest["params"] = {"year": year}

        if name == "index-table":
            rows = [records[0].CSV_HEADER if records else "scholar,year,Q,h,g,c,N_w,x"]
            rows.extend(r.csv_row() for r in records)

        elif name == "rank":
            ranked = rank(records, args.index)
            rows = [f"rank,scholar,{args.index},Q"]
            rows.extend(
                f"{r.position},{r.record.scholar},"
                f"{r.record.c_display if args.index == 'c' else r.value},{r.record.q}"
                for r in ranked
            )
            manifest["params"]["index"] = args.index

        elif name == "c-eq-nw":
            edges = [int(t) for t in args.bins.split(",")]
            table = c_equals_nw_stats(records, edges)
            rows = ["q_lo,q_hi,scholars,degenerate,ratio"]
            for row in table:
                ratio = "" if row.ratio is None else f"{row.ratio:.4f}"
                rows.append(f"{row.q_lo},{row.q_hi},{row.scholars},{row.degenerate},{ratio}")
            manifest["params"]["bins"] = edges

        elif name == "scatter":
            points = x_vs_q_scatter(records, args.q_max, args.size, args.seed)
            rows = ["Q,x"]
            rows.extend(f"{q},{x:.2f}" for q, x in points)
            manifest["params"].update({"q_max": args.q_max, "size": args.size})

        elif name == "closeness":
            sel = CohortSelection(
                q_range=(args.q_min, args.q_max), fixed=dict(args.fix),
                size=args.size, seed=args.seed,
            )
            cohort = select_cohort(records, sel)
            result = classify_closeness(cohort, args.index_a, args.index_b, args.k)
            rows = [f"scholar_a,scholar_b,{args.index_a}_close,{args.index_b}_close"]
            for p in result.pairs:
                rows.append(f"{p.scholar_a},{p.scholar_b},{p.close_a},{p.close_b}")
            manifest["params"].update({
                "index_a": args.index_a, "index_b": args.index_b, "k": args.k,
                "q_range": [args.q_min, args.q_max], "fixed": dict(args.fix),
                "size": args.size,
                "s_a": result.s_a, "s_b": result.s_b,
                "cohort": [r.scholar for r in cohort],
            })
        else:  # pragma: no cover - argparse restricts choices
            raise WorkspaceError(f"unknown report {name}")

    path = ws.write_report(name, rows, manifest, out=args.out)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
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
    except (WorkspaceError, IncompleteStateError, SequencingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IngestError, ConfigError, InsufficientCohortError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CiteDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
