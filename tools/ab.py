"""A/B timing of two checkouts of the repository in one interpreter.

Loads ``src/gentropies`` of each checkout into this interpreter under its own
package name (``gentropies_old``, ``gentropies_new``), so both run on the same
numpy, the same caches and the same moment of the host's speed.  Each case
builds its inputs once per side with that side's public API, warms both
sides, then times them alternately: in every round each side takes one
sample (the mean time per call over enough calls to fill ``SAMPLE_S``
seconds), and the side that goes first alternates from round to round.

The ``cli`` cases time whole processes instead: ``python -m gentropies.cli``
with ``PYTHONPATH`` set to that side's ``src``, one child per sample (a child
takes longer than ``SAMPLE_S``), for a change to start-up or import.

Per case it prints each side's median time per call with its quartiles,
new/old of the medians, and the share of rounds that the new side won.  The
verdict is "faster" or "slower" only where one side won at least 90 % of the
rounds and the medians differ by more than the old side's interquartile
range; else "same".  Two copies of one tree report "same" on every case.

Usage, from any directory::

    python tools/ab.py OLD_CHECKOUT NEW_CHECKOUT [CASE ...]

A CASE argument keeps the cases whose name contains it.  The cases are
`conditional_entropy` on a 2**20 x 2 and a 1024 x 1024 joint and `entropy`
on 2 entries, each for shannon, renyi(2) and tsallis(2); `conditional_entropy`
of renyi(50) on the 1024 x 1024 joint and `run_suite` of renyi(20), whose
exponential means are saturated (see `generators._SATURATED`); `run_suite`
of renyi(2), each suite with 100 trials; and the children ``cli compute`` on
a CSV of four distributions of 2**8 to 2**14 entries and ``cli check`` of
tsallis(2) with 100 trials.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROUNDS = 15  # samples per side and case; at least 4, for quartiles
SAMPLE_S = 0.05  # seconds of calls per sample


def load(checkout: Path, name: str):
    """The ``gentropies`` package of ``checkout``, imported as ``name``."""
    package = checkout / "src" / "gentropies"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _families(g):
    return {"shannon": g.shannon(), "renyi(2)": g.renyi(2.0), "tsallis(2)": g.tsallis(2.0)}


def child(g, argv):
    """A call that runs ``python -m gentropies.cli *argv`` on the sources of the package ``g``."""
    src = Path(g.__path__[0]).parent
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "gentropies.cli", *argv]
    # from ``src`` itself too: ``-m`` puts the working directory first on the path
    return lambda: subprocess.run(cmd, cwd=src, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, check=True)


def cases(g, workdir: Path) -> dict:
    """Case name -> a call of no arguments, on inputs built once by the package ``g``
    (the ``cli`` cases' file is written in ``workdir``)."""
    rng = np.random.default_rng(0)
    tall, square = rng.exponential(1.0, (2 ** 20, 2)), rng.exponential(1.0, (1024, 1024))
    joints = {"2^20x2": g.make_joint(tall / tall.sum()),
              "1024x1024": g.make_joint(square / square.sum())}
    pair = g.make_distribution([0.25, 0.75])
    out = {}
    for label, family in _families(g).items():
        for shape, joint in joints.items():
            out[f"conditional_entropy {label} {shape}"] = (
                lambda f=family, j=joint: g.conditional_entropy(f, j))
        out[f"entropy {label} 2"] = lambda f=family: g.entropy(f, pair)
    out["conditional_entropy renyi(50) 1024x1024"] = (
        lambda f=g.renyi(50.0), j=joints["1024x1024"]: g.conditional_entropy(f, j))
    for alpha in (2.0, 20.0):
        config = g.CheckConfig(g.renyi(alpha), trials=100, seed=1)
        out[f"run_suite renyi({alpha:g}) 100"] = lambda c=config: g.run_suite(c)
    csv = workdir / f"{g.__name__}.csv"
    csv.write_text("".join(",".join(map(repr, (p / p.sum()).tolist())) + "\n"
                           for p in (rng.exponential(1.0, 2 ** k) for k in (8, 10, 12, 14))))
    out["cli compute renyi(2) n=2^8..2^14"] = child(
        g, ["compute", "--family", "renyi", "--alpha", "2", str(csv)])
    out["cli check tsallis(2) 100"] = child(
        g, ["check", "--family", "tsallis", "--alpha", "2", "--trials", "100"])
    return out


def sample(fn, number: int) -> float:
    """Seconds per call of ``fn`` over ``number`` calls, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        return (time.perf_counter() - start) / number
    finally:
        gc.enable()


def compare(old, new) -> dict:
    """Each side's samples, alternating which side goes first."""
    old(), new()  # warm both: first-call imports and caches
    number = max(1, round(SAMPLE_S / min(sample(old, 1), sample(new, 1))))
    times = {"old": [], "new": []}
    for r in range(ROUNDS):
        order = (("old", old), ("new", new)) if r % 2 == 0 else (("new", new), ("old", old))
        for side, fn in order:
            times[side].append(sample(fn, number))
    return times


def summary(times: dict) -> tuple:
    """Medians and quartiles of both sides, the new side's share of wins and the verdict."""
    (q1o, mo, q3o), (q1n, mn, q3n) = (statistics.quantiles(times[s], n=4) for s in ("old", "new"))
    won = sum(n < o for o, n in zip(times["old"], times["new"])) / len(times["old"])
    verdict = "same"
    if abs(mn - mo) > q3o - q1o and max(won, 1.0 - won) >= 0.9:
        verdict = "faster" if mn < mo else "slower"
    return (mo, q1o, q3o), (mn, q1n, q3n), won, verdict


def _time(t: float) -> str:
    return f"{t * 1e3:.3f} ms" if t >= 1e-3 else f"{t * 1e6:.2f} us"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("cases", nargs="*", help="keep the cases whose name contains one of these")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        old = cases(load(args.old, "gentropies_old"), Path(workdir))
        new = cases(load(args.new, "gentropies_new"), Path(workdir))
        print(f"{'case':<40} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} "
              f"{'new/old':>7} {'new won':>7}  verdict")
        for name in old:
            if args.cases and not any(c in name for c in args.cases):
                continue
            o, n, won, verdict = summary(compare(old[name], new[name]))
            sides = [f"{_time(m)} [{_time(q1)}, {_time(q3)}]" for m, q1, q3 in (o, n)]
            print(f"{name:<40} {sides[0]:>34} {sides[1]:>34} {n[0] / o[0]:>7.3f} {won:>7.0%}  "
                  f"{verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
