"""The benchmark in BENCHMARK.json runs against the current package.

Each workload runs briefly, as the benchmark would, so that a change to the
API or file layout it calls fails here rather than only when it is
benchmarked. The runs write only under the ignored ``perfbench/_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload, trace", [(w, 0) for w in WORKLOADS] + [("replicate", 1)])
def test_workload_runs_and_checks_correct(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
