"""The benchmark's bulk workload runs end to end and its outputs check out.

Tiny sizes only (``--smoke``, about 3 s); no timing is gated.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bulk_smoke_is_correct():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bulk", "--smoke",
         "--seed", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
