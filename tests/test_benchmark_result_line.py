"""A traced benchmark run ends with a result line.

``perfbench/run.py`` prints one JSON result line last; a run whose last
stdout line is anything else is no measurement.  These tests run the
tiny preset of two workloads traced, from the repository root, and read
that line.  The run makes and removes its own ``.perfbench_work/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sparse-x", "giant-exact"])
def test_traced_run_ends_with_a_result_line(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--preset", "tiny",
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["per_layer"]} <= set(result["metrics"])
