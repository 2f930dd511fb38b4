"""citedist benchmark: seeded corpora driven through the CLI, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload giant-x --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's corpus from ``--seed`` and then
repeats one cycle of user steps until ``--seconds`` are used up (the
next cycle starts only if it is expected to end in time; the first one
always runs).  A cycle ingests the corpus into two fresh workspaces,
runs the pipeline on the first with ``--jobs 1`` and on the second with
``--jobs 2``, runs it again on the first (a resume that skips every
year) and then the workload's reports.  Time too short for another
cycle goes to short rounds: one more ingest, resume and report pass.
Each step is a fresh ``python -m citedist`` process, so timings include
interpreter start-up as a user sees it.  Every cycle's outputs are
checked; see checks.py.

``--trace 0`` prints the end-to-end metrics, medians over the cycles.
``--trace 1`` alternates an untraced cycle with an in-process replay of
the same steps through ``citedist.cli.main`` under span tracing (with
``--jobs 1``, since forked workers are invisible to the parent's spans)
and prints the per-layer metrics, medians over the replays.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the workload parameters, the host, the measured corpus shape
and the sha256 of the artifacts and reports.  The exit code is 0 only
when every step and check succeeded.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse
import contextlib
import itertools
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpora
from checks import Ops
from spans import Tracer, import_package

DEADLINE = time.monotonic() + 170  # the whole invocation must end within 180 s
REFERENCE_PROBE_S = 0.030  # probe time that defines the reference host speed
WINDOW = 5  # default window_length
N = 6  # default weight threshold n


@dataclass(frozen=True)
class Workload:
    """A corpus generator with its parameters; the reason for each
    workload is its ``why`` in BENCHMARK.json."""

    shape: str  # "sparse" or "team" (see corpora.py)
    params: dict
    tiny: dict  # scaled-down parameters for the self-tests
    reports: tuple[tuple[str, ...], ...]  # report name and options, per command
    exact: bool = False
    # Q band and cohort size of a closeness report run after the others
    cohort: tuple[int, int, int] | None = None
    tiny_cohort: tuple[int, int, int] | None = None


TEAM = dict(year_hi=2019, min_team=2, max_team=5, p_new=0.35, refs=5)
TEAM_TINY = dict(TEAM, papers=300, year_lo=2010)
NETWORK_STATS = ("network-stats", "--year", "2019")

WORKLOADS = {
    "sparse-x": Workload(
        shape="sparse",
        params=dict(papers=5000, authors=2500, citations=25000, year_lo=1970, year_hi=2019),
        tiny=dict(papers=600, authors=300, citations=3000, year_lo=1990, year_hi=2019),
        reports=(NETWORK_STATS, ("distance-histogram",)),
    ),
    "giant-x": Workload(
        shape="team",
        params=dict(TEAM, papers=3000, year_lo=2012),
        tiny=TEAM_TINY,
        reports=(NETWORK_STATS,),
    ),
    "giant-exact": Workload(
        shape="team",
        params=dict(TEAM, papers=1200, year_lo=2010),
        tiny=TEAM_TINY,
        reports=(NETWORK_STATS, ("index-table",), ("rank", "--index", "x"),
                 ("c-eq-nw", "--bins", "0,10,20,40,80,160"), ("scatter", "--q-max", "20"),
                 ("distance-histogram",), ("heatmap",)),
        exact=True,
        cohort=(10, 20, 20),
        tiny_cohort=(2, 6, 4),
    ),
}


@dataclass
class Context:
    """One invocation: workload, generated inputs and the work directory."""

    root: Path
    workload: Workload
    params: dict
    work: Path
    records: list
    expected: dict  # ingest summary counts of the generated records
    cohort: tuple[int, int, int] | None  # closeness Q band and size
    ops: Ops = field(default_factory=Ops)
    config: Path | None = None
    fix: list[str] | None = None  # closeness --fix arguments, from the first index-table
    reports_digest: dict | None = None
    shape: dict = field(default_factory=dict)  # measured corpus shape
    digests: dict = field(default_factory=dict)
    walls: dict = field(default_factory=lambda: defaultdict(list))  # unscaled time samples

    @property
    def corpus(self) -> Path:
        return self.work / "corpus.jsonl"

    @property
    def years(self) -> tuple[int, int]:
        return self.params["year_lo"], self.params["year_hi"]

    def cfg_args(self) -> list[str]:
        return ["--config", str(self.config)] if self.config else []


# -- steps ----------------------------------------------------------------------


def report_steps(ctx: Context, ws: Path):
    """The workload's report commands, one argv at a time.  The closeness
    cohort is fixed from the first index-table the workload wrote, so
    each argv must run before the next is drawn."""
    for name, *options in ctx.workload.reports:
        yield ["report", name, "--workspace", str(ws), *options, *ctx.cfg_args()]
        if name == "index-table" and ctx.fix is None:
            table = ws / "reports" / "index-table.csv"
            if table.is_file():
                ctx.fix = choose_fix(ctx, table)
    if ctx.cohort is not None:
        q_lo, q_hi, size = ctx.cohort
        yield ["report", "closeness", "--workspace", str(ws), "--q-min", str(q_lo),
               "--q-max", str(q_hi), "--size", str(size), *(ctx.fix or []), *ctx.cfg_args()]


def choose_fix(ctx: Context, index_table: Path) -> list[str]:
    """--fix h=..,g=.. from the most common (h, g) in the cohort's Q band."""
    q_lo, q_hi, _size = ctx.cohort
    rows = index_table.read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    pairs = Counter()
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        if q_lo <= int(cells["Q"]) <= q_hi:
            pairs[(int(cells["h"]), int(cells["g"]))] += 1
    if not pairs:
        return []
    (h, g), _ = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
    return ["--fix", f"h={h}", "--fix", f"g={g}"]


def probe(cpus: set[int]) -> float:
    """Seconds a fixed pure-Python loop takes on each of ``cpus``, averaged:
    the speed of those CPUs right now.  Leaves the process on ``cpus``."""
    took = 0.0
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        started = time.perf_counter()
        x = 0
        for j in range(300_000):
            x += j * j % 7
        took += time.perf_counter() - started
    os.sched_setaffinity(0, cpus)
    return took / len(cpus)


@dataclass(frozen=True)
class Step:
    wall: float  # seconds
    seconds: float  # seconds at the reference host speed
    rss_mb: float


class CliRunner:
    """Runs ``python -m citedist`` steps as child processes, started by
    launcher.py so that their max RSS is their own.

    On a shared host each CPU's speed can drift by tens of percent within
    seconds.  So a single-process step runs on one fixed CPU, the
    speed of that CPU is probed right before and after the step, and
    the step's wall time is scaled to the reference speed (the speed at
    which the probe takes ``REFERENCE_PROBE_S``).  A ``--jobs 2`` step
    runs on two CPUs and is scaled by their mean speed.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        cpus = sorted(os.sched_getaffinity(0))
        self.home, self.pair = set(cpus[:1]), set(cpus[:2])
        os.sched_setaffinity(0, self.home)
        self.probes: list[float] = []
        src = str(ctx.root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Stop the launcher; a step still running is killed first."""
        if self.launcher.poll() is None:
            self.launcher.terminate()
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def __call__(self, argv: list[str], log: Path, parallel: bool = False) -> Step:
        """Run one step; it is killed if it would outlive the invocation's
        deadline."""
        cpus = self.pair if parallel else self.home
        before = probe(cpus)
        request = {"argv": [sys.executable, "-m", "citedist", *argv], "env": self.env,
                   "stdout": str(log.with_suffix(".out")), "stderr": str(log.with_suffix(".err")),
                   "cpus": sorted(cpus), "timeout": max(DEADLINE - time.monotonic(), 0.1)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        after = probe(cpus)
        os.sched_setaffinity(0, self.home)
        self.probes += [before, after]
        code = os.waitstatus_to_exitcode(reply["status"])
        if not self.ctx.ops.check(code == 0, f"citedist {' '.join(argv[:2])}: exit {code}"):
            tail = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")[-400:]
            print(f"stderr of citedist {' '.join(argv)}:\n{tail}", file=sys.stderr)
        speed = 2 * REFERENCE_PROBE_S / (before + after)
        return Step(reply["wall"], reply["wall"] * speed, reply["maxrss_kb"] / 1024)


def dir_bytes(*dirs: Path) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.glob("*") if p.is_file())


def check_outputs(ctx: Context, ws: Path, oracle: dict) -> None:
    """Checks (a) and (b) on a completed workspace."""
    for year, expected in oracle.items():
        checks.check_events(ctx.ops, ws, year, expected)
    checks.check_x_states(ctx.ops, ws, N)


def check_reports(ctx: Context, ws: Path) -> None:
    """(e) every cycle's reports equal the first cycle's."""
    digests = checks.tree_digests(ws, ("reports",))
    if ctx.reports_digest is None:
        ctx.reports_digest = digests
        ctx.digests["reports"] = checks.combined_digest(digests)
        stats = ws / "reports" / "network-stats.csv"
        if stats.is_file():
            ctx.shape.update(checks.network_shape(stats))
    else:
        checks.check_identical(ctx.ops, "reports vs first cycle", ctx.reports_digest, digests)


def record(ctx: Context, samples: dict, name: str, steps: list[Step]) -> None:
    """One sample of a time metric: the steps' total, at reference speed
    for the result and as wall time for the info line."""
    samples[name].append(sum(step.seconds for step in steps))
    ctx.walls[name].append(sum(step.wall for step in steps))


def resume_and_report(ctx: Context, cli: CliRunner, ws: Path, logs: Path,
                      samples: dict) -> list[Step]:
    """Resume a completed workspace, then run the workload's reports on it."""
    artifacts = checks.tree_digests(ws, ("ledgers", "states"))
    resume = cli(["run", "--workspace", str(ws), "--jobs", "1", *ctx.cfg_args()], logs / "resume")
    record(ctx, samples, "resume_s", [resume])
    checks.check_identical(ctx.ops, "artifacts after resume", artifacts,
                           checks.tree_digests(ws, ("ledgers", "states")))
    reports = [cli(argv, logs / f"report{i}") for i, argv in enumerate(report_steps(ctx, ws))]
    record(ctx, samples, "report_s", reports)
    check_reports(ctx, ws)
    return [resume, *reports]


def ingest(ctx: Context, cli: CliRunner, ws: Path, samples: dict) -> Step:
    step = cli(["ingest", str(ctx.corpus), "--workspace", str(ws), *ctx.cfg_args()],
               ws.with_name(ws.name + "-ingest"))
    record(ctx, samples, "setup_s", [step])
    checks.check_ingest_counts(ctx.ops, ws, ctx.expected)
    return step


def cli_cycle(ctx: Context, cli: CliRunner, cyc: Path, oracle: dict, samples: dict) -> Path:
    """One untraced cycle of every step; returns its completed workspace."""
    cyc.mkdir()
    ws1, ws2 = cyc / "j1", cyc / "j2"
    steps = [ingest(ctx, cli, ws1, samples)]
    steps.append(cli(["run", "--workspace", str(ws1), "--jobs", "1", *ctx.cfg_args()],
                     cyc / "run"))
    record(ctx, samples, "run_s", steps[-1:])
    steps.append(ingest(ctx, cli, ws2, samples))
    steps.append(cli(["run", "--workspace", str(ws2), "--jobs", "2", *ctx.cfg_args()],
                     cyc / "run_j2", parallel=True))
    record(ctx, samples, "run_j2_s", steps[-1:])
    samples["workspace_mb"].append(dir_bytes(ws1 / "ledgers", ws1 / "states") / 2**20)
    artifacts = checks.tree_digests(ws1, ("ledgers", "states"))
    checks.check_identical(ctx.ops, "--jobs 2 vs --jobs 1 artifacts", artifacts,
                           checks.tree_digests(ws2, ("ledgers", "states")))
    ctx.digests.setdefault("artifacts", checks.combined_digest(artifacts))
    steps += resume_and_report(ctx, cli, ws1, cyc, samples)
    samples["peak_rss_mb"].append(max(step.rss_mb for step in steps))
    check_outputs(ctx, ws1, oracle)
    shutil.rmtree(ws2)
    return ws1


def short_round(ctx: Context, cli: CliRunner, cyc: Path, done: Path, samples: dict) -> None:
    """Set-up, resume and reports again, to use time too short for a cycle."""
    cyc.mkdir()
    ingest(ctx, cli, cyc / "ws", samples)
    resume_and_report(ctx, cli, done, cyc, samples)
    shutil.rmtree(cyc)


def replay(ctx: Context, cli_main, tag: str, oracle: dict, sink,
           tracer: Tracer | None) -> dict[str, float]:
    """The cycle's --jobs 1 steps replayed in-process, traced when a
    tracer is given; returns wall seconds per step kind."""
    cyc = ctx.work / tag
    cyc.mkdir()
    ws = cyc / "j1"
    steps = itertools.chain([
        ("ingest", ["ingest", str(ctx.corpus), "--workspace", str(ws), *ctx.cfg_args()]),
        ("run", ["run", "--workspace", str(ws), "--jobs", "1", *ctx.cfg_args()]),
        ("resume", ["run", "--workspace", str(ws), "--jobs", "1", *ctx.cfg_args()]),
    ], (("report", argv) for argv in report_steps(ctx, ws)))
    seconds: dict[str, float] = defaultdict(float)
    with (tracer or contextlib.nullcontext()), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for step, argv in steps:
            if tracer:
                tracer.step = step
            started = time.perf_counter()
            code = cli_main(argv)
            seconds[step] += time.perf_counter() - started
            ctx.ops.check(code == 0, f"in-process citedist {' '.join(argv[:2])}: exit {code}")
    check_outputs(ctx, ws, oracle)
    check_reports(ctx, ws)
    shutil.rmtree(cyc)
    return seconds


# -- metrics ----------------------------------------------------------------------

def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_metrics(traced: list[tuple[Tracer, dict, float]],
                  samples: dict[str, list[float]]) -> dict[str, float]:
    """Medians over the traced replays, plus the derived ratios."""
    per_replay = []
    for tracer, seconds, untraced in traced:
        m = tracer.layer_metrics()
        m["trace.total_s"] = sum(seconds.values())
        m["trace.overhead_s"] = m["trace.total_s"] - untraced
        m["trace.run_s"] = seconds["run"]
        if "distances.search" in tracer.resolved:
            m["trace.run_search_share"] = (
                tracer.span_seconds("distances.search", step="run") / seconds["run"])
        if {"workspace.ledger_write", "workspace.state_write"} <= tracer.resolved:
            m["trace.run_write_share"] = (
                tracer.span_seconds("workspace.ledger_write", step="run")
                + tracer.span_seconds("workspace.state_write", step="run")) / seconds["run"]
        per_replay.append(m)
    names = {name for m in per_replay for name in m}
    out = {name: statistics.median(m[name] for m in per_replay if name in m) for name in names}
    out["pipeline.parallel_efficiency"] = (
        statistics.median(samples["run_s"]) / (2 * statistics.median(samples["run_j2_s"])))
    return out


def print_breakdown(traced: list[tuple[Tracer, dict, float]]) -> None:
    """Per-step self time of each span in the first replay, for reading."""
    tracer, seconds, _ = traced[0]
    print("traced replay: self seconds per span and step")
    for step, took in seconds.items():
        spans = sorted(((v, span) for (s, span), v in tracer.self_time.items() if s == step),
                       reverse=True)
        parts = ", ".join(f"{span} {v:.3f} ({v / took:.0%})" for v, span in spans if v >= 0.001)
        print(f"  {step} {took:.3f}s: {parts}")


# -- measurement loop and entry point -----------------------------------------


def measure(ctx: Context, seconds: float, trace: bool) -> tuple[dict, list, list]:
    """Cycles until the next would overrun ``seconds``; untraced runs then
    fill the rest with short rounds.  Returns the samples, the traced
    replays and the host speed probes."""
    cap = None if ctx.workload.exact else N
    oracle = {year: checks.oracle_event_tally(ctx.records, year, WINDOW, cap)
              for year in ctx.years}
    cli_main = import_package(ctx.root / "src").main if trace else None
    samples: dict[str, list[float]] = defaultdict(list)
    traced = []
    handlers = list(logging.getLogger().handlers)
    end = min(time.monotonic() + seconds, DEADLINE)
    done = None
    cli = CliRunner(ctx)
    with contextlib.closing(cli), open(ctx.work / "replay.log", "w", encoding="utf-8") as sink:
        for k in itertools.count():
            started = time.monotonic()
            if done is not None:
                shutil.rmtree(done.parent)
            done = cli_cycle(ctx, cli, ctx.work / f"c{k}", oracle, samples)
            if trace:
                untraced = replay(ctx, cli_main, f"u{k}", oracle, sink, None)
                tracer = Tracer()
                timed = replay(ctx, cli_main, f"t{k}", oracle, sink, tracer)
                traced.append((tracer, timed, sum(untraced.values())))
            if time.monotonic() + (time.monotonic() - started) > end:
                break
        while not trace:
            expected = sum(statistics.median(ctx.walls[name])
                           for name in ("setup_s", "resume_s", "report_s"))
            if time.monotonic() + expected > end:
                break
            k += 1
            short_round(ctx, cli, ctx.work / f"s{k}", done, samples)
    for handler in logging.getLogger().handlers:  # the replays' log went to the sink
        if handler not in handlers:
            logging.getLogger().removeHandler(handler)
    return samples, traced, cli.probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "tiny"), default="full",
                        help="tiny: scaled-down corpus for the self-tests")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running step is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "citedist" / "cli.py").is_file():
        print(f"error: no citedist source under {root / 'src'}; "
              "run from the root of a citedist checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    params = workload.params if args.preset == "full" else workload.tiny
    generate = corpora.sparse_corpus if workload.shape == "sparse" else corpora.team_corpus
    records = generate(args.seed, **params)

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root=root, workload=workload, params=params,
                  work=work, records=records,
                  expected=corpora.expected_counts(records),
                  cohort=workload.cohort if args.preset == "full" else workload.tiny_cohort)
    ctx.shape["pre_window_ref_share"] = round(checks.pre_window_share(records, WINDOW), 4)
    try:
        corpora.write_jsonl(records, ctx.corpus)
        if workload.exact:
            ctx.config = work / "exact.cfg"
            ctx.config.write_text("exact_distances = true\n", encoding="utf-8")
        samples, traced, probes = measure(ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.trace:
        print_breakdown(traced)
        values = layer_metrics(traced, samples)
    else:
        values = medians(samples)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for failure in ctx.ops.failures:
        print(f"FAILED: {failure}")
    ops_failed = ctx.ops.failed / ctx.ops.attempted
    print(json.dumps({
        "workload": args.workload, "preset": args.preset, "seed": args.seed,
        "corpus": dict(shape=workload.shape, exact=workload.exact, window_length=WINDOW, n=N,
                       **params),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "cycles": len(samples["run_s"]), "replays": len(traced), "shape": ctx.shape,
        "samples": {name: [round(v, 4) for v in values] for name, values in samples.items()},
        "wall_medians": medians(ctx.walls),
        "probe_median_s": statistics.median(probes), "probes": len(probes),
        "ops_failed": ops_failed, "sha256": ctx.digests,
    }, sort_keys=True))
    print(json.dumps({
        "correct": ctx.ops.failed == 0,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if ctx.ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
