"""Starts the benchmark's CLI steps on behalf of run.py.

A process started with vfork or posix_spawn reports in ``ru_maxrss`` at
least the high-water RSS of the process that started it.  The benchmark
process grows (generated records, oracle tallies, in-process replays),
so it starts every step through this small process instead, and the
RSS a step reports is the step's own.

Protocol, one JSON object per line.  Request on stdin:
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path,
"cpus": [...], "timeout": seconds}``.  Reply on stdout:
``{"wall": seconds, "status": wait status, "maxrss_kb": int}``.  The
step runs on ``cpus`` and is killed after ``timeout`` seconds.  On
SIGTERM a running step is killed and waited for.
"""

import json
import os
import signal
import sys
import threading
import time


def kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(req: dict) -> dict:
    os.sched_setaffinity(0, req["cpus"])
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    started = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ])
    watchdog = threading.Timer(req["timeout"], kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    return {"wall": time.perf_counter() - started, "status": status,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
