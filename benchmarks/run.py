"""Layered benchmark of gentropies: bulk arrays, the axiom suite and the CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload bulk --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's ops run in a
closed loop, one at a time, in a fixed number of whole rounds, about
``--seconds`` worth on the seed code, and every sample is calibrated to the
host's speed (see ``calibrate``).  ``--trace 1`` runs a fixed number of rounds
four times (untraced, traced, untraced, traced), checks that the two traced
passes give the same counts, and reports the per-layer metrics of the last
traced pass; ``--seconds`` does not apply to it.  Every output is
checked after the timing, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the three workloads in turn, each in a fresh
interpreter.  ``--smoke`` runs at tiny sizes, for checking the output schema
only.  See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"
OUT = BENCH / "_out"
WORK = BENCH / "_work"

WORKLOADS = ("bulk", "suite", "cli")
#: set-up is timed in two parts, each as a median: a child's import (noisy
#: here, 100-200 ms for one and the same import) and this process's input generation
IMPORT_REPEATS = 7
BUILD_REPEATS = 3
STARTUP_REPEATS = 3
#: nominal seconds of one round on the seed code; a run does --seconds / ROUND_S
#: rounds whatever the speed of the code, so each op has a fixed sample count
ROUND_S = {"bulk": 1.6, "suite": 0.7, "cli": 4.0}
#: the timed phase stops after the round that passes this many seconds, so that
#: a run ends in time; only code several times slower than the seed code gets there
MAX_TIMED_S = 100.0
TRACE_ROUNDS = 1

#: Host-speed calibration.  The host the bounds were set on runs 1.5-1.9x
#: slower for seconds to minutes at a time, in CPU time as in wall time, and
#: a whole run can fall in a slow spell.  So every timed sample is multiplied
#: by ``calibrate(kind)``, read just before it: the time a fixed kernel that
#: runs no gentropies code takes on the reference host when it is fast (these
#: seconds; Intel Xeon, Python 3.11.7, numpy 2.4.6), divided by its time now.
#: ``small`` and ``large`` send 2^16 or 2^18 floats from a list through
#: numpy; ``child`` starts an interpreter that does nothing.
CAL_REF_S = {"small": 3.5e-3, "large": 14e-3, "child": 10e-3}
CAL_VALUES = {"small": 1.0 - np.random.default_rng(0).random(2 ** 16),
              "large": 1.0 - np.random.default_rng(0).random(2 ** 18)}


def calibrate(kind: str) -> float:
    """Reference seconds per second now, from one run of the ``kind`` kernel."""
    t0 = time.perf_counter()
    if kind == "child":
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    else:
        x = np.asarray(CAL_VALUES[kind].tolist())
        float((x * np.log2(x)).sum())
    return CAL_REF_S[kind] / (time.perf_counter() - t0)


def child_import_seconds(module: str, env: dict) -> float:
    """Seconds a fresh interpreter spends in ``import <module>``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def run_rounds(ops, rounds, W, tracer=None, calibrated=False):
    """Run ``rounds`` whole rounds of ``ops``.

    Returns per-op latencies (scaled by ``calibrate(op.cal)`` if
    ``calibrated``), ``(op index, output or exception)`` pairs, the wall time
    of each round and the chain-cache (hits, misses).
    """
    latencies, outputs, round_times = [], [], []
    hits = misses = 0
    start = time.perf_counter()
    for _ in range(rounds):
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            for _ in range(op.reps):
                if op.cold:
                    W.clear_chain_cache()
                h0, m0 = W.chain_cache_counts()
                scale = calibrate(op.cal) if calibrated else 1.0
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = op.run()
                    else:
                        with tracer.op(op.kind):
                            out = op.run()
                except Exception as exc:  # an op that raises counts as failed
                    out = exc
                latencies.append((time.perf_counter() - t0) * scale)
                outputs.append((i, out))
                h1, m1 = W.chain_cache_counts()
                hits, misses = hits + h1 - h0, misses + m1 - m0
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start > MAX_TIMED_S:
            break
    return latencies, outputs, round_times, (hits, misses)


def count_failures(ops, outputs) -> int:
    failed = 0
    shown = 0
    for i, out in outputs:
        ok = not isinstance(out, Exception) and ops[i].check(out)
        if not ok:
            failed += 1
            if shown < 5:
                shown += 1
                print(f"FAILED {ops[i].label}: {out!r:.300}", file=sys.stderr)
    return failed


def end_to_end(args, build, W) -> tuple[dict, dict]:
    imports = [child_import_seconds("gentropies", W.CHILD_ENV) * calibrate("child")
               for _ in range(IMPORT_REPEATS)]
    builds = []
    for _ in range(BUILD_REPEATS):
        scale = calibrate("small")
        t0 = time.perf_counter()
        ops = None
        ops = build()
        builds.append((time.perf_counter() - t0) * scale)
    # p90 over k ops lies below the slowest k - floor(0.9 (k + 1)) of them;
    # run enough rounds that at least ten samples lie above it
    k = len(ops)
    rounds = 1 if args.smoke else max(
        round(args.seconds / ROUND_S[args.workload]),
        math.ceil(10 / (k - math.floor(0.9 * (k + 1)))))
    latencies, outputs, round_times, _ = run_rounds(ops, rounds, W, calibrated=True)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    failed = count_failures(ops, outputs)
    per_op = [[] for _ in ops]
    for (i, _), latency in zip(outputs, latencies):
        per_op[i].append(latency)
    op_s = [statistics.median(x) for x in per_op]
    p90 = statistics.quantiles(op_s, n=10)[8]
    above = sum(len(x) for x, m in zip(per_op, op_s) if m > p90)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
        "ops_per_s": (k / sum(op_s), "1/s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {IMPORT_REPEATS} imports + median of {BUILD_REPEATS} input builds",
        "ops_per_s": f"{k} ops / the sum of their latencies ({n} ops run in "
                     f"{sum(round_times):.3f} s)",
        "op_p50_ms": f"over {k} ops, each the median of {len(round_times)} calibrated samples",
        "op_p90_ms": f"over {k} ops, {above} of {n} samples above",
        "peak_rss_mb": "largest child process" if args.workload == "cli" else "this process",
    }
    return ops, {"attempted": n, "failed": failed, "metrics": metrics, "notes": notes,
                 "op_ms": [x * 1e3 for x in op_s]}


COUNT_METRICS = (
    "stable.calls", "stable.cells", "distributions.calls", "distributions.cells_built",
    "distributions.errors", "entropies.entropy.calls", "entropies.conditional_entropy.calls",
    "generators.quasi_mean.calls", "deformed.calls", "checker.run_suite.calls",
    "checker.trials", "checker.chain_cache.hits", "checker.chain_cache.misses",
    "cli.bytes_in", "cli.exit_mismatches",
)


def traced_pass(ops, rounds, W, tracing):
    """One pass of ``rounds`` rounds from a cold chain cache; traced if ``tracing``."""
    W.clear_chain_cache()
    tracer = tracing.Tracer() if tracing else None
    if tracer is not None:
        tracer.install()
    try:
        _, outputs, round_times, cache = run_rounds(ops, rounds, W, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tracer, outputs, sum(round_times), cache


def layer_metrics(tracer, ops, outputs, cache, startup_s) -> dict:
    s = tracer.summary()
    calls, busy, self_s, total, c = s["calls"], s["busy"], s["self"], s["total"], tracer.counts
    n_ops = len(outputs)
    bytes_in = sum(ops[i].bytes_in for i, _ in outputs)
    read_s = busy["distributions.read"]
    cells = c["stable.cells"]
    return {
        "stable.calls": calls["stable"],
        "stable.cells": cells,
        "stable.busy_s": busy["stable"],
        "stable.ns_per_cell": busy["stable"] * 1e9 / cells if cells else 0.0,
        "stable.vector_share": (c["stable.vector_calls"] / c["stable.kernel_calls"]
                                if c["stable.kernel_calls"] else 0.0),
        "distributions.calls": calls["distributions"],
        "distributions.cells_built": c["distributions.cells_built"],
        "distributions.busy_s": busy["distributions"],
        "distributions.self_s": self_s["distributions"],
        "distributions.construct_s": busy["distributions.construct"],
        "distributions.restructure_s": busy["distributions.restructure"],
        "distributions.read_s": read_s,
        "distributions.errors": s["errors"]["distributions"],
        "entropies.entropy.calls": calls["entropies.entropy"],
        "entropies.conditional_entropy.calls": calls["entropies.conditional_entropy"],
        "entropies.calls_per_op": calls["entropies"] / n_ops,
        "entropies.busy_s": busy["entropies"],
        "entropies.self_s": self_s["entropies"],
        "generators.quasi_mean.calls": calls["generators.quasi_mean"],
        "generators.busy_s": busy["generators"],
        "deformed.calls": calls["deformed"],
        "deformed.busy_s": busy["deformed"],
        "checker.run_suite.calls": calls["checker.run_suite"],
        "checker.trials": c["checker.trials"],
        "checker.busy_s": busy["checker"],
        "checker.self_s": self_s["checker"],
        "checker.chain_cache.hits": cache[0],
        "checker.chain_cache.misses": cache[1],
        "cli.startup_s": startup_s,
        "cli.main.busy_s": total["cli.main"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_in": bytes_in,
        "cli.read_mb_per_s": bytes_in / 1e6 / read_s if read_s else 0.0,
        "cli.exit_mismatches": sum(
            ops[i].kind.startswith("cli.") and (isinstance(out, Exception) or out[0] != 0)
            for i, out in outputs),
    }


def per_layer(args, build, W) -> tuple[list, dict]:
    import tracing

    ops = build()
    startup = statistics.median(
        child_import_seconds("gentropies.cli", W.CHILD_ENV) for _ in range(STARTUP_REPEATS))
    # untraced and traced passes alternate, so that drift between passes
    # does not show up as tracing overhead
    _, out_u1, wall_u1, _ = traced_pass(ops, TRACE_ROUNDS, W, None)
    first, out_a, wall_a, cache_a = traced_pass(ops, TRACE_ROUNDS, W, tracing)
    _, out_u2, wall_u2, _ = traced_pass(ops, TRACE_ROUNDS, W, None)
    tracer, out_b, wall_b, cache_b = traced_pass(ops, TRACE_ROUNDS, W, tracing)
    metrics = layer_metrics(tracer, ops, out_b, cache_b, startup)
    metrics["trace.overhead_s"] = (wall_a + wall_b - wall_u1 - wall_u2) / 2
    repeat = layer_metrics(first, ops, out_a, cache_a, startup)
    differ = [k for k in COUNT_METRICS if metrics[k] != repeat[k]]
    for k in differ:
        print(f"COUNT DIFFERS between traced passes: {k} {repeat[k]} != {metrics[k]}",
              file=sys.stderr)
    outputs = out_u1 + out_a + out_u2 + out_b
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    result = {
        "attempted": len(outputs),
        "failed": count_failures(ops, outputs),
        "counts_repeat": not differ,
        "metrics": {k: (v, units[k]) for k, v in metrics.items()},
        "notes": {},
        "spans": tracer.dump(),
    }
    return ops, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs each workload in turn, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; checks the schema only")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *rest]
                                + (["--smoke"] if args.smoke else [])).returncode
                 for w in WORKLOADS]
        return max(codes)

    if not (SRC / "gentropies" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: {ROOT} has no gentropies sources (src/gentropies) or oracle "
              "(tests/reference.py); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import gentropies

    if Path(gentropies.__file__).resolve().parent != SRC / "gentropies":
        print(f"error: imported gentropies from {gentropies.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload == "bulk":
            build = lambda: W.build_bulk(args.seed, args.smoke)  # noqa: E731
        elif args.workload == "suite":
            build = lambda: W.build_suite(args.seed, args.smoke)  # noqa: E731
        else:
            build = lambda: W.build_cli(args.seed, workdir, args.smoke,  # noqa: E731
                                        inprocess=bool(args.trace))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
              + (" smoke" if args.smoke else ""))
        ops, result = (per_layer if args.trace else end_to_end)(args, build, W)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, u) in result["metrics"].items():
        print(f"{name:<36} {value:<14.6g} {u:<8} {result['notes'].get(name, '')}")
    n, failed = result["attempted"], result["failed"]
    print(f"{'fail_ratio':<36} {failed / n:<14.6g} {'ratio':<8} {failed} of {n} ops failed")
    provenance = {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "inputs": [op.label for op in ops],
    }
    print("provenance " + json.dumps({k: v for k, v in provenance.items() if k != "inputs"}))
    correct = result["failed"] == 0 and result.get("counts_repeat", True)
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance, **line}
    if "op_ms" in result:
        record["op_median_ms"] = list(zip(provenance["inputs"], result["op_ms"]))
    if "spans" in result:
        record["spans"] = result["spans"]
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, separators=(",", ":")) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
