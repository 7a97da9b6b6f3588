"""The benchmark's workers against this source tree: a change under src/ that
breaks a workload's first call fails here, before any benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["protocol-physical", "gate-sweep",
                                      "protocol-ideal"])
def test_benchmark_worker_first_call_runs_clean(workload, tmp_path):
    # probe mode imports the program and makes the workload's first call;
    # no bytecode is written under perfbench/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "1",
         "probe", "0", "0", str(tmp_path / "spans.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0 and out["errors"] == [], out
