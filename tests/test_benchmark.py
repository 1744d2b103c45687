"""The benchmark's own checks, at a size tier-1 can afford.

``perfbench/run.py`` runs at least three CLI jobs of a workload, each in a
fresh process, and checks each job's output against the workload's oracle
and against the first job's output byte for byte.  A one-second run of
each workload adds about 3-4 s to the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["table1", "table2"])
def test_benchmark_jobs_pass_their_oracles(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 3
