"""Forked workers for ``run --jobs N``: each computes a contiguous block
of years.

``run_pipeline`` hands ``run_blocks`` its blocks and the function that
computes one.  The calling process computes the first block; every
other block goes to a worker forked for it after the store load, so no
worker loads the store again (reference counting still copies the pages
of the store that a worker reads).  Each process is pinned to its own
CPU of the caller's affinity set and writes the ledgers of its own
block.  A worker sends back one message through its pipe: ``b"x"`` and
the x increments of its block in ``marshal`` format, or ``b"e"`` and
the pickled exception that stopped it.  ``pickle`` is imported only
for a failure: importing it would grow each process by about 0.25 MB.

Light layer: imports no graph module (see ``citedist``).  The pipeline
imports this module only when it forks, so a serial run loads neither
it nor ``signal``.
"""

from __future__ import annotations

import itertools
import marshal
import os
import signal
import traceback
from contextlib import suppress
from typing import BinaryIO, Callable, NoReturn

from .errors import CiteDistError

Compute = Callable[[list[int], dict[int, int]], None]


def split_blocks(years: list[int], weights: list[int], parts: int) -> list[list[int]]:
    """``years`` cut into ``parts`` contiguous, non-empty blocks (``parts``
    at most ``len(years)``).  The k-th cut falls where the running sum of
    ``weights`` comes closest to k/``parts`` of their total, the earlier
    cut on a tie."""
    prefix = list(itertools.accumulate(weights))
    total = prefix[-1]
    cuts = [0]
    for k in range(1, parts):
        first, final = cuts[-1] + 1, len(years) - parts + k
        cuts.append(min(range(first, final + 1),
                        key=lambda cut: abs(prefix[cut - 1] * parts - total * k)))
    cuts.append(len(years))
    return [years[a:b] for a, b in zip(cuts, cuts[1:])]


def run_blocks(blocks: list[list[int]], compute: Compute, xs: dict[int, int]) -> None:
    """``compute(block, xs)`` for every block: the first here and each
    other in a worker forked for it, pinned to the CPU of its position in
    this process's affinity set while this process runs on the first
    (left to the scheduler, a short-lived child often shares its
    parent's CPU).  A worker sends back the x increments of its block,
    which are added to ``xs``, or the exception that stopped it, which
    is raised here once every worker has been reaped.  If this process's
    own block or the wait raises, every worker is sent SIGTERM and
    reaped before the exception goes on.  The CLI runs no thread, so
    forking it is safe."""
    cpus = sorted(os.sched_getaffinity(0))
    pending: list[tuple[int, BinaryIO, list[int]]] = []  # workers not yet reaped
    try:
        for cpu, block in zip(cpus[1:], blocks[1:]):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(block, cpu, write_fd, [read_fd, *(fp.fileno() for _, fp, _ in pending)],
                        compute)
            pending.append((pid, os.fdopen(read_fd, "rb"), block))
            os.close(write_fd)
        os.sched_setaffinity(0, {cpus[0]})
        try:
            compute(blocks[0], xs)
        finally:
            os.sched_setaffinity(0, cpus)
        failures = []
        while pending:
            result = _reap(*pending[0])
            del pending[0]
            if isinstance(result, dict):
                for author, delta in result.items():
                    xs[author] = xs.get(author, 0) + delta
            else:
                failures.append(result)
        if failures:
            raise failures[0]
    except BaseException:
        for pid, fp, _ in pending:
            fp.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        for pid, _, _ in pending:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise


def _reap(pid: int, fp: BinaryIO, block: list[int]) -> dict[int, int] | BaseException:
    """What the worker ``pid`` sent through ``fp``, read to the end, once
    the worker has ended."""
    with fp:
        data = fp.read()
    _, status = os.waitpid(pid, 0)
    try:  # the message was sent by the worker, forked from this process
        if data[:1] == b"x":
            return marshal.loads(data[1:])
        if data[:1] == b"e":
            import pickle

            return pickle.loads(data[1:])
    except Exception:  # a truncated message, or an exception that does not rebuild
        pass
    return RuntimeError(f"the worker for years {block[0]}-{block[-1]} ended without "
                        f"a result (exit status {os.waitstatus_to_exitcode(status)})")


def _sigterm_exits(signum, frame) -> NoReturn:
    raise SystemExit(128 + signum)


def _worker(block: list[int], cpu: int, write_fd: int, inherited: list[int],
            compute: Compute) -> NoReturn:
    """Body of a forked worker: pin to ``cpu``, ``compute`` the block and
    send the parent the block's x increments, or the exception that
    stopped it, through ``write_fd``.  It closes the ``inherited`` read
    ends first, so that a write to a pipe whose parent end is closed
    fails at once.  SIGTERM becomes SystemExit, so that a ledger write in
    progress still removes its temp file; an interrupt is left to the
    parent, which stops its workers.  The worker always ends with
    ``os._exit`` and never returns into the caller's stack."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _sigterm_exits)
        for fd in inherited:
            os.close(fd)
        os.sched_setaffinity(0, {cpu})
        increments: dict[int, int] = {}
        try:
            compute(block, increments)
            message = b"x" + marshal.dumps(increments)
            code = 0
        except BaseException as exc:
            if isinstance(exc, Exception) and not isinstance(exc, CiteDistError):
                traceback.print_exc()  # its frames do not travel with it to the parent
            import pickle

            message = b"e" + pickle.dumps(exc)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        with os.fdopen(write_fd, "wb") as fp:
            fp.write(message)
    finally:
        os._exit(code)
