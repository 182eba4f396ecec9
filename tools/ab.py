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

Per case it prints two rows, one per clock: the wall-clock time per call and
the CPU time per call (user and system; ``time.process_time`` for a call in
this interpreter, the ``RUSAGE_CHILDREN`` deltas of ``resource.getrusage`` for
a child process).  Each row gives each side's median with its quartiles,
new/old of the medians, and the share of rounds that the new side won.  The
verdict is "faster" or "slower" only where one side won at least 90 % of the
rounds and the medians differ by more than the old side's interquartile
range; else "same".  Two copies of one tree report "same" on every case.

Usage, from any directory::

    python tools/ab.py OLD_CHECKOUT NEW_CHECKOUT [CASE ...]

A CASE argument keeps the cases whose name contains it, and only those
cases' inputs are built.  The cases are `conditional_entropy` on a 2**20 x 2
and a 1024 x 1024 joint and `entropy` on 2 entries, each for shannon,
renyi(2) and tsallis(2); `conditional_entropy` of renyi(50) on the 1024 x
1024 joint and `run_suite` of renyi(20), whose exponential means are
saturated (see `generators._SATURATED`); `conditional_entropy` of
general_escort(2, -1, -1) (two exponents) and of general_escort(2, -1, 0)
(the lambda = 0 escort) on the 1024 x 1024 joint; `entropy` of renyi(2) on
2**20 entries of which about 10 % are zero; `escort` of exponent 2 on 2**20
entries, with no zero and with about 10 % zeros; `run_suite` of renyi(2), each
suite with 100 trials; `marginal` of a held 2**19 x 2 joint, whose row sums
are taken anew in every call (a new joint on the same arrays); for shannon,
renyi(2) and tsallis(2), the one-input residual functions: `counterexample_probe`,
and `strong_additivity_residual` and `refinement_consistency` on an 8 x 8 and a
64 x 48 joint (the refinement of 8 or 64 blocks of 1 to 8 or 48 cells) and
`product_additivity_residual` on a pair of 8 and 8 or 64 and 48 entries; the children
``cli compute`` on a CSV of four distributions of 2**8 to 2**14 entries and
``cli check`` of tsallis(2) with 100 trials; and the ops of the benchmark's
``bulk`` and ``suite`` workloads at seed ``BULK_SEED``, named ``bulk`` or
``suite`` and the op's label.  A workload's schedule draws all of its ops
from one seeded stream, so it is built whole, once per side, and only when
no CASE is given or a CASE is the workload's name or starts with it and a
space (see `workloads_of`); the ops not kept are dropped.
It comes from the new checkout's ``benchmarks/workloads.py``, loaded once
per side against that side's package, so that both sides run one schedule.
After the cases, each workload with kept ops gets one more row: each side's
sum of its ops' wall-clock medians and new/old of the sums.  The benchmark's
``ops_per_s`` is its ops divided by the sum of their medians, so on all of a
workload's ops the ratio is old/new of ``ops_per_s``, read in one run.

Before each sample of a child case, a bare ``python -S -c pass`` runs
untimed, as the benchmark's ``calibrate("child")`` runs one before each
``cli`` op: what ran just before a child changes its time, and without it
the tool reads "same" where the benchmark sees a gain.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import importlib.util
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROUNDS = 15  # samples per side and case; at least 4, for quartiles
SAMPLE_S = 0.05  # seconds of calls per sample
BULK_SEED = 1  # the seed of the bulk and suite schedules
WORKLOADS = ("bulk", "suite")  # the benchmark workloads whose ops are cases


def load(checkout: Path, name: str):
    """The ``gentropies`` package of ``checkout``, imported as ``name``."""
    package = checkout / "src" / "gentropies"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(path: Path, g):
    """The benchmark's workloads module at ``path``, loaded against the package ``g``.

    It builds its families at import from ``import gentropies as G`` and imports
    ``gentropies.cli``, so while it loads, ``gentropies`` and its loaded submodules
    in ``sys.modules`` are ``g`` and ``g``'s; rebinding ``G`` afterwards would miss
    the families.  The module is registered under its own name before it runs,
    where its ``@dataclass`` looks it up."""
    importlib.import_module(f"{g.__name__}.cli")
    aliases = {"gentropies" + name[len(g.__name__):]: module
               for name, module in list(sys.modules.items())
               if name == g.__name__ or name.startswith(g.__name__ + ".")}
    saved = {name: sys.modules.pop(name) for name in aliases if name in sys.modules}
    name = f"{g.__name__}_workloads"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    sys.modules.update(aliases)
    try:
        spec.loader.exec_module(module)
    finally:
        for alias in aliases:
            del sys.modules[alias]
        sys.modules.update(saved)
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


def bare_child() -> None:
    """An interpreter that does nothing, as the benchmark's ``calibrate("child")`` starts."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL, capture_output=True)


def cases(g, workdir: Path) -> dict:
    """Case name -> a factory that builds the case's inputs with the package ``g``
    and returns a call of no arguments on them (the ``cli compute`` file is
    written in ``workdir``).  The names of the child cases start with ``cli``."""

    @functools.cache  # the joints that several cases share
    def joint(rows, cols, seed):
        cells = np.random.default_rng(seed).exponential(1.0, (rows, cols))
        return g.make_joint(cells / cells.sum())

    @functools.cache
    def pair(m, n):
        rng = np.random.default_rng(7)
        return tuple(g.make_distribution(p / p.sum()) for p in (rng.exponential(1.0, m),
                                                                 rng.exponential(1.0, n)))

    def sparse(n, zeros):
        rng = np.random.default_rng(3)
        p = rng.exponential(1.0, n)
        p[rng.random(n) < zeros] = 0.0
        return g.make_distribution(p / p.sum())

    def compute():
        rng = np.random.default_rng(2)
        csv = workdir / f"{g.__name__}.csv"
        csv.write_text("".join(",".join(map(repr, (p / p.sum()).tolist())) + "\n"
                               for p in (rng.exponential(1.0, 2 ** k) for k in (8, 10, 12, 14))))
        return child(g, ["compute", "--family", "renyi", "--alpha", "2", str(csv)])

    shapes = {"2^20x2": (2 ** 20, 2, 0), "1024x1024": (1024, 1024, 1)}
    out = {}
    for label, family in _families(g).items():
        for shape, dims in shapes.items():
            out[f"conditional_entropy {label} {shape}"] = (
                lambda f=family, d=dims: functools.partial(g.conditional_entropy, f, joint(*d)))
        out[f"entropy {label} 2"] = (
            lambda f=family: functools.partial(g.entropy, f, g.make_distribution([0.25, 0.75])))
        out[f"counterexample_probe {label}"] = (
            lambda f=family: functools.partial(g.counterexample_probe, f))
        for rows, cols in ((8, 8), (64, 48)):
            out[f"strong_additivity_residual {label} {rows}x{cols}"] = (
                lambda f=family, d=(rows, cols, 5): functools.partial(
                    g.strong_additivity_residual, f, joint(*d)))
            out[f"refinement_consistency {label} {rows}x{cols}"] = (
                lambda f=family, d=(rows, cols): functools.partial(
                    g.refinement_consistency, f,
                    np.random.default_rng(6).integers(1, d[1] + 1, size=d[0]).tolist()))
            out[f"product_additivity_residual {label} {rows}x{cols}"] = (
                lambda f=family, d=(rows, cols): functools.partial(
                    g.product_additivity_residual, f, *pair(*d)))
    out["conditional_entropy renyi(50) 1024x1024"] = lambda: functools.partial(
        g.conditional_entropy, g.renyi(50.0), joint(*shapes["1024x1024"]))
    for params in ((2.0, -1.0, -1.0), (2.0, -1.0, 0.0)):
        out["conditional_entropy general_escort(%g,%g,%g) 1024x1024" % params] = (
            lambda a=params: functools.partial(
                g.conditional_entropy, g.general_escort(*a), joint(*shapes["1024x1024"])))
    out["marginal 2^19x2"] = lambda: functools.partial(
        lambda held: g.marginal(g.JointDistribution._wrap(held._flat, held._bounds)),
        joint(2 ** 19, 2, 4))
    out["entropy renyi(2) 2^20 10% zeros"] = lambda: functools.partial(
        g.entropy, g.renyi(2.0), sparse(2 ** 20, 0.1))
    for zeros, text in ((0.0, ""), (0.1, " 10% zeros")):
        out[f"escort(2) 2^20{text}"] = lambda z=zeros: functools.partial(
            g.escort, sparse(2 ** 20, z), 2.0)
    for alpha in (2.0, 20.0):
        out[f"run_suite renyi({alpha:g}) 100"] = lambda a=alpha: functools.partial(
            g.run_suite, g.CheckConfig(g.renyi(a), trials=100, seed=1))
    out["cli compute renyi(2) n=2^8..2^14"] = compute
    out["cli check tsallis(2) 100"] = lambda: child(
        g, ["check", "--family", "tsallis", "--alpha", "2", "--trials", "100"])
    return out


def workloads_of(selected) -> list:
    """The benchmark workloads whose ops the CASE arguments ``selected`` may keep: all
    when there are none, else each that a CASE names or starts with and a space, so
    that ``run_suite renyi(2)`` builds no ``suite`` schedule."""
    return [w for w in WORKLOADS
            if not selected or any(c == w or c.startswith(w + " ") for c in selected)]


def workload_cases(path: Path, g, workloads, kept) -> dict:
    """`cases` of the ops of the benchmark's ``workloads`` that ``kept`` keeps by name,
    from the workloads module at ``path``."""
    module, out = load_workloads(path, g), {}
    for workload in workloads:
        for op in getattr(module, f"build_{workload}")(BULK_SEED):
            if kept(name := f"{workload} {op.label}"):
                out[name] = lambda run=op.run: run
    return out


def children_cpu() -> float:
    """CPU seconds, user and system, of the child processes waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def sample(fn, number: int, prime=None, cpu=time.process_time) -> tuple[float, float]:
    """Wall-clock and ``cpu`` seconds per call of ``fn`` over ``number`` calls, with the
    collector off, after an untimed ``prime()`` if given."""
    gc.collect()
    if prime is not None:
        prime()
    gc.disable()
    try:
        start, start_cpu = time.perf_counter(), cpu()
        for _ in range(number):
            fn()
        return (time.perf_counter() - start) / number, (cpu() - start_cpu) / number
    finally:
        gc.enable()


def compare(old, new, prime=None, cpu=time.process_time) -> dict:
    """Each side's samples per clock (``"wall"`` and ``"cpu"``), alternating which side
    goes first."""
    old(), new()  # warm both: first-call imports and caches
    first = min(sample(old, 1, prime, cpu)[0], sample(new, 1, prime, cpu)[0])
    number = max(1, round(SAMPLE_S / first))
    times = {clock: {"old": [], "new": []} for clock in ("wall", "cpu")}
    for r in range(ROUNDS):
        order = (("old", old), ("new", new)) if r % 2 == 0 else (("new", new), ("old", old))
        for side, fn in order:
            wall, used = sample(fn, number, prime, cpu)
            times["wall"][side].append(wall)
            times["cpu"][side].append(used)
    return times


def summary(times: dict) -> tuple:
    """Medians and quartiles of both sides, the new side's share of wins and the verdict."""
    (q1o, mo, q3o), (q1n, mn, q3n) = (statistics.quantiles(times[s], n=4) for s in ("old", "new"))
    won = sum(n < o for o, n in zip(times["old"], times["new"])) / len(times["old"])
    verdict = "same"
    if abs(mn - mo) > q3o - q1o and max(won, 1.0 - won) >= 0.9:
        verdict = "faster" if mn < mo else "slower"
    return (mo, q1o, q3o), (mn, q1n, q3n), won, verdict


def workload_sums(medians: dict) -> dict:
    """Workload -> the sums of the old and new wall-clock ``medians`` (case -> (old, new))
    of its cases, named ``"<workload> <op label>"`` (see `workload_cases`), and their number."""
    sums = {}
    for name, (old, new) in medians.items():
        if (workload := name.split(" ", 1)[0]) in WORKLOADS:
            o, n, k = sums.get(workload, (0.0, 0.0, 0))
            sums[workload] = o + old, n + new, k + 1
    return sums


def _time(t: float) -> str:
    return f"{t * 1e3:.3f} ms" if t >= 1e-3 else f"{t * 1e6:.2f} us"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("cases", nargs="*", help="keep the cases whose name contains one of these")
    args = parser.parse_args(argv)

    def kept(name):
        return not args.cases or any(c in name for c in args.cases)

    with tempfile.TemporaryDirectory() as workdir:
        sides = [load(args.old, "gentropies_old"), load(args.new, "gentropies_new")]
        old, new = ({name: make for name, make in cases(g, Path(workdir)).items() if kept(name)}
                    for g in sides)
        workloads = workloads_of(args.cases)
        if workloads:
            path = args.new / "benchmarks" / "workloads.py"
            old.update(workload_cases(path, sides[0], workloads, kept))
            new.update(workload_cases(path, sides[1], workloads, kept))
        names = [name for name in old if name in new]
        width = max(map(len, names), default=4)
        print(f"{'case':<{width}} clock {'old median [q1, q3]':>34} {'new median [q1, q3]':>34} "
              f"{'new/old':>7} {'new won':>7}  verdict")
        medians = {}  # case -> the (old, new) wall-clock medians
        for name in names:
            child_case = name.startswith("cli ")
            times = compare(old[name](), new[name](), bare_child if child_case else None,
                            children_cpu if child_case else time.process_time)
            for clock, samples in times.items():
                o, n, won, verdict = summary(samples)
                if clock == "wall":
                    medians[name] = o[0], n[0]
                sides_text = [f"{_time(m)} [{_time(q1)}, {_time(q3)}]" for m, q1, q3 in (o, n)]
                ratio = n[0] / o[0] if o[0] else math.nan  # a clock too coarse for the call
                print(f"{name:<{width}} {clock:<5} {sides_text[0]:>34} {sides_text[1]:>34} "
                      f"{ratio:>7.3f} {won:>7.0%}  {verdict}", flush=True)
        for workload, (o, n, k) in workload_sums(medians).items():
            print(f"{workload}, {k} ops: sum of wall-clock medians {_time(o)} old, "
                  f"{_time(n)} new, new/old {n / o:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
