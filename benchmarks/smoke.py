"""Smoke test of the benchmark: output schema and metric names, not timings.

Run from the root of a checkout:

    python3 benchmarks/smoke.py

It runs every workload at tiny sizes (``run.py --smoke``) with tracing off
and on, and checks that the last line of output has exactly the keys of the
result schema, that the metric names and units are those of BENCHMARK.json,
that every output was correct, and that two traced runs with the same seed
give the same counts.  It also checks that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json
and the benchmark.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(result: dict | None, trace: int) -> list[str]:
    if result is None:
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int)):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{name}: {m}")
        elif name in wanted and m["unit"] != wanted[name]:
            problems.append(f"{name}: unit {m['unit']!r}, expected {wanted[name]!r}")
    return problems


def counts(result: dict) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items() if units.get(k) == "count"}


def main() -> int:
    failures = []
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, w, trace)
            problems = check_result(result_of(proc), trace)
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            if trace and not problems:
                again = result_of(run(ROOT, w, trace))
                if again is None or counts(again) != counts(result_of(proc)):
                    problems.append("counts differ between two traced runs with one seed")
            print(f"{w} trace {trace}: {'ok' if not problems else 'FAILED'}")
            failures += [f"{w} trace {trace}: {p}" for p in problems]

    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and result_of(proc) is None
        print(f"bare directory: {'refused' if ok else 'FAILED'}")
        if not ok:
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
