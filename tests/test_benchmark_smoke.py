"""The benchmark's bulk, suite and cli workloads run end to end and check out.

Tiny sizes only (``--smoke``: about 3 s for bulk, 2 s for suite, where the
suite workload checks the verdicts of all 18 families, and 8 s for cli,
which checks every command's stdout byte for byte against the in-process
values); no timing is gated.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bulk", "suite", "cli"])
def test_smoke_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--smoke",
         "--seed", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
