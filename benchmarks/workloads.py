"""The three seeded workloads of the benchmark: ``bulk``, ``suite`` and ``cli``.

A builder turns a seed into a schedule of ops.  An op is one closed-loop
request: ``run()`` makes one call into the library (or one CLI process)
and returns its output, and ``check(output)`` decides after the timed phase
whether that output is correct.  Every input is made from the seed; the
library sees only the generated values.  References are computed lazily, at
most once per op, and never inside the timed phase.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gentropies as G
import gentropies.cli  # noqa: F401  (binds G.cli for the cli workload and the tracer)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "tests" / "reference.py"

#: The repository's frozen tolerances (tests/test_acceptance.py, tests/test_entropies.py).
ENTROPY_REL = 1e-12
CONDITIONAL_REL = 1e-11
CHAIN_ABS = 1e-9
SUITE_REL = 1e-9

#: Child processes import the package from this checkout's sources.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    bytes_in: int = 0
    #: start from a cold chain cache, as a fresh CLI process does
    cold: bool = False
    #: the host-speed kernel of run.py timed before each sample: ``small``
    #: or ``large`` numpy round trips in process, or a bare ``child`` interpreter
    cal: str = "small"
    #: samples per round; small inputs take more, so that their median is
    #: as steady as that of the large ones
    reps: int = 1


#: inputs of this many cells or more run at the speed of memory, not of cache
LARGE_CELLS = 2 ** 17


def _sizing(cells: int) -> dict:
    """The calibration kernel and samples per round for an input of ``cells``."""
    return {"cal": "large" if cells >= LARGE_CELLS else "small",
            "reps": min(4, max(1, 2 ** 16 // cells))}


@functools.cache
def oracle():
    """tests/reference.py, the 50-digit mpmath oracle, loaded read-only."""
    spec = importlib.util.spec_from_file_location("reference_oracle", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ref_entropy(family, values) -> float:
    """Oracle entropy of ``values`` after normalizing them exactly in mpmath."""
    from mpmath import fsum, mpf

    xs = [mpf(v) for v in values]
    total = fsum(xs)
    return oracle().ref_entropy(family, [x / total for x in xs])


def compose(family, x: float, y: float) -> float:
    """The family's composition law: deformed addition for HCT, else addition."""
    if isinstance(family, G.HCT):
        return x + y + family.lam * x * y
    return x + y


def close(value, ref: float, rel: float) -> bool:
    """pytest.approx(ref, rel=rel, abs=rel/10), as the repository's oracle tests use."""
    return isinstance(value, float) and abs(value - ref) <= max(rel * abs(ref), rel / 10)


def chain_cache():
    """The library's cache of fair-coin chains, if it has one."""
    cache = getattr(G.checker, "_chain_flat", None)
    return cache if hasattr(cache, "cache_info") else None


def chain_cache_counts() -> tuple[int, int]:
    cache = chain_cache()
    if cache is None:
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def clear_chain_cache() -> None:
    cache = chain_cache()
    if cache is not None:
        cache.cache_clear()


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exponential draws with exactly n // 10 zeros, normalized to sum 1."""
    x = rng.exponential(1.0, n)
    x[rng.choice(n, n // 10, replace=False)] = 0.0
    return x / x.sum()


# ---------------------------------------------------------------------------
# bulk: large inputs through the numpy branch of the kernels

# In order of cost per cell, cheapest last: the i-th family's large input
# has 2^(15 + i) entries.
ENTROPY_FAMILIES = [
    ("general_escort(2,-1,0)", G.general_escort(2.0, -1.0, 0.0)),
    ("renyi(100)", G.renyi(100.0)),
    ("tsallis(2)", G.tsallis(2.0)),
    ("renyi(2)", G.renyi(2.0)),
    ("havrda-charvat(0.5)", G.havrda_charvat(0.5)),
    ("shannon", G.shannon()),
]
# Strongly additive members only, so that the chain rule checks every joint;
# Renyi(100) is left out because its exponential mean underflows at 2**(-99 x).
# The costliest per cell gets the fewest rows.
JOINT_FAMILIES = [
    ("general_escort(2,-1,-1)", G.general_escort(2.0, -1.0, -1.0)),
    ("renyi(2)", G.renyi(2.0)),
    ("havrda-charvat(0.5)", G.havrda_charvat(0.5)),
]
PRODUCT_FAMILIES = [
    ("general_escort(2,-1,0)", G.general_escort(2.0, -1.0, 0.0)),
    ("renyi(100)", G.renyi(100.0)),
    ("tsallis(2)", G.tsallis(2.0)),
]

BULK_SIZES = {
    False: dict(small=12, base=12, tiles=3, rows=(8, 9, 10), cols=(8, 10),
                products=((7, 7), (8, 9), (10, 10)), chain=range(12, 21)),
    True: dict(small=4, base=4, tiles=1, rows=(2, 3, 4), cols=(2, 4),
               products=((2, 2), (2, 3), (3, 3)), chain=range(2, 6)),
}


def _entropy_op(label, family, values, ref) -> Op:
    return Op(
        "entropy",
        f"make_distribution+entropy {label} n={len(values)}",
        lambda: G.entropy(family, G.make_distribution(values)),
        lambda out: close(out, ref(), ENTROPY_REL),
        **_sizing(len(values)),
    )


def _joint_op(label, family, rows) -> Op:
    @functools.cache
    def ref_marginal_entropy():
        return ref_entropy(family, [math.fsum(r) for r in rows])

    def run():
        joint = G.make_joint(rows)
        return G.conditional_entropy(family, joint), G.joint_entropy(family, joint)

    def check(out):
        cond, whole = out
        return close(whole, compose(family, ref_marginal_entropy(), cond), CONDITIONAL_REL)

    cells = sum(len(r) for r in rows)
    return Op("joint", f"make_joint+conditional+joint {label} rows={len(rows)} cells={cells}",
              run, check, **_sizing(cells))


def _product_op(label, family, p, q) -> Op:
    @functools.cache
    def ref():
        return compose(family, ref_entropy(family, p), ref_entropy(family, q))

    def run():
        pd, qd = G.make_distribution(p), G.make_distribution(q)
        return G.entropy(family, G.flatten(G.direct_product(pd, qd)))

    return Op("product", f"flatten(direct_product)+entropy {label} {len(p)}x{len(q)}",
              run, lambda out: close(out, ref(), ENTROPY_REL), **_sizing(len(p) * len(q)))


def _chain_op(label, family, n) -> Op:
    return Op(
        "chain",
        f"chain_residual {label} n={n}",
        lambda: G.chain_residual(family, n),
        lambda out: isinstance(out, float) and 0.0 <= out <= CHAIN_ABS,
        **_sizing(2 ** n),
    )


def build_bulk(seed: int, smoke: bool = False) -> list[Op]:
    """Large inputs: entropies at n = 2^12..2^20, big ragged joints, products, chains.

    Inputs up to 2^14 entries are checked against the oracle.  Larger
    entropy inputs are a base draw tiled m times and shuffled, so their
    reference is the product law with the uniform trace of U_m; joints are
    checked by the chain rule against the oracle's marginal entropy.
    """
    s = BULK_SIZES[smoke]
    rng = np.random.default_rng(seed)
    ops = []
    base = _draw(rng, 2 ** s["base"])
    base_list = base.tolist()
    for i, (label, family) in enumerate(ENTROPY_FAMILIES):
        small = _draw(rng, 2 ** (s["small"] + i % 3)).tolist()
        ops.append(_entropy_op(label, family, small,
                               functools.cache(functools.partial(ref_entropy, family, small))))
        m = 2 ** (s["tiles"] + i)
        tiled = (np.tile(base, m) / m)[rng.permutation(m * base.size)].tolist()

        @functools.cache
        def ref_tiled(family=family, m=m):
            return compose(family, ref_entropy(family, base_list), ref_entropy(family, [1.0] * m))

        ops.append(_entropy_op(label, family, tiled, ref_tiled))
    lo, hi = s["cols"]
    for k, (label, family) in zip(s["rows"], JOINT_FAMILIES):
        lengths = rng.integers(2 ** lo, 2 ** hi + 1, size=2 ** k)
        cells = [_draw(rng, int(m)) for m in lengths]
        total = sum(c.sum() for c in cells)
        ops.append(_joint_op(label, family, [(c / total).tolist() for c in cells]))
    for (a, b), (label, family) in zip(s["products"], PRODUCT_FAMILIES):
        ops.append(_product_op(label, family, _draw(rng, 2 ** a).tolist(),
                               _draw(rng, 2 ** b).tolist()))
    for n in s["chain"]:
        label, family = ENTROPY_FAMILIES[n % len(ENTROPY_FAMILIES)]
        ops.append(_chain_op(label, family, n))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# suite: many tiny joints through the scalar branch and the checker

# The strongly additive grid of tests/conftest.py::constrained_grid ...
SUITE_GRID = [
    ("shannon(-1)", G.shannon(-1.0)),
    ("shannon(-2)", G.shannon(-2.0)),
    ("renyi(0.5)", G.renyi(0.5)),
    ("renyi(2)", G.renyi(2.0)),
    ("renyi(3)", G.renyi(3.0)),
    ("nath(0.5,1)", G.strongly_additive_nath(0.5, 1.0)),
    ("nath(2,-0.5)", G.strongly_additive_nath(2.0, -0.5)),
    ("tsallis(0.5)", G.tsallis(0.5)),
    ("tsallis(2)", G.tsallis(2.0)),
    ("tsallis(3)", G.tsallis(3.0)),
    ("havrda-charvat(0.5)", G.havrda_charvat(0.5)),
    ("havrda-charvat(2)", G.havrda_charvat(2.0)),
]
# ... plus the forcing members with escort exponent beta != 1.
SUITE_FORCING = [
    ("general_escort(1,-1,-0.5)", G.general_escort(1.0, -1.0, -0.5)),
    ("general_escort(0.5,-1,0)", G.general_escort(0.5, -1.0, 0.0)),
    ("general_escort(1,-1,1)", G.general_escort(1.0, -1.0, 1.0)),
    ("general_escort(2,-1,0)", G.general_escort(2.0, -1.0, 0.0)),
    ("general_escort(2,-1,1)", G.general_escort(2.0, -1.0, 1.0)),
    ("general_escort(3,-1,0)", G.general_escort(3.0, -1.0, 0.0)),
]
SUITE_TRIALS = {False: 100, True: 5}


def _suite_op(label, family, expected, trials, seed) -> Op:
    def check(report):
        if report.verdict != expected:
            return False
        if expected == "violation detected":
            return True
        strong = next(c for c in report.checks if c.name == "strong_additivity")
        return strong.max_relative_residual <= SUITE_REL

    return Op(
        "suite",
        f"run_suite {label} trials={trials}",
        # the same seed every round, so that each round repeats the same work
        lambda: G.run_suite(G.CheckConfig(family, trials=trials, seed=seed)),
        check,
    )


def build_suite(seed: int, smoke: bool = False) -> list[Op]:
    """run_suite calls at the CLI's default trial count, cycling over the families."""
    rng = np.random.default_rng(seed)
    members = [(label, f, "pass") for label, f in SUITE_GRID]
    members += [(label, f, "violation detected") for label, f in SUITE_FORCING]
    seeds = rng.integers(0, 2 ** 63, size=len(members))
    ops = [
        _suite_op(label, family, expected, SUITE_TRIALS[smoke], int(s))
        for (label, family, expected), s in zip(members, seeds)
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# cli: one `gentropies` process per op, on files written by this module


def _flag_args(flags: dict) -> list[str]:
    out = []
    for key, value in flags.items():
        out += [f"--{key}", value if isinstance(value, str) else repr(value)]
    return out


def _family(name: str, flags: dict):
    return G.make_family(name, alpha=flags.get("alpha"), lam=flags.get("lambda"),
                         tau=flags.get("tau"))


def _write(path: Path, fmt: str, rows: list[list[float]], key: str) -> int:
    """Write rows as CSV lines, or as JSON {key: rows} ({"p": row} for one row)."""
    if fmt == "csv":
        text = "".join(",".join(map(repr, r)) + "\n" for r in rows)
    else:
        text = json.dumps({key: rows[0] if key == "p" else rows}) + "\n"
    path.write_text(text)
    return len(text.encode())


def _cli_run(argv: list[str], inprocess: bool) -> Callable[[], tuple[int, str]]:
    if inprocess:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = G.cli.main(list(argv))
            return code, out.getvalue()
        return run

    cmd = [sys.executable, "-m", "gentropies.cli", *argv]

    def run():
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout
    return run


def _cli_op(kind, label, argv, expected, inprocess, bytes_in=0) -> Op:
    """An op whose exit code must be 0 and whose stdout must equal ``expected()``."""
    return Op(f"cli.{kind}", f"{kind} {label}", _cli_run(argv, inprocess),
              lambda out: out == (0, expected()), bytes_in, cold=inprocess, cal="child")


def _fmt(v: float) -> str:
    return f"{v:.15g}\n"


# (family, flags, format, distribution sizes as powers of two)
CLI_COMPUTE = [
    ("renyi", {"alpha": 2.0}, "csv", (8, 10, 12, 14)),
    ("shannon", {}, "json", (14,)),
    ("tsallis", {"alpha": 2.0}, "csv", (12,) * 8),
    ("havrda-charvat", {"alpha": 0.5}, "json", (12,)),
    ("general", {"alpha": 2.0, "tau": -1.0, "lambda": 0.0}, "csv", (13, 13)),
    ("hct", {"alpha": 2.0, "lambda": -1.0, "tau": -1.0}, "json", (8,)),
]
# (command, family, flags, format, rows, row lengths lo..hi)
CLI_JOINT = [
    ("joint", "renyi", {"alpha": 2.0}, "json", 512, (512, 512)),
    ("conditional", "shannon", {}, "csv", 256, (128, 256)),
    ("conditional", "general", {"alpha": 2.0, "tau": -1.0, "lambda": -1.0}, "json", 128, (128, 128)),
    ("joint", "tsallis", {"alpha": 2.0}, "csv", 128, (64, 256)),
    ("conditional", "havrda-charvat", {"alpha": 0.5}, "csv", 64, (1, 64)),
]
# (family, flags, --expect-violation)
CLI_CHECK = [
    ("tsallis", {"alpha": 2.0}, False),
    ("general", {"alpha": 2.0, "tau": -1.0, "lambda": 1.0}, True),
    ("general", {"alpha": 0.5, "tau": -1.0, "lambda": 0.0}, True),
]
# (family, fixed flags, ranged flag, start:stop:step, format, size)
CLI_SWEEP = [
    ("renyi", {}, "alpha", "0.5:4:0.5", "csv", 12),
    ("shannon", {}, "tau", "-3:-0.5:0.5", "csv", 8),
]
# (family, flags, n)
CLI_TRACE = [
    ("shannon", {}, 1024),
    ("renyi", {"alpha": 2.0}, 4096),
    ("tsallis", {"alpha": 2.0}, 65536),
    ("havrda-charvat", {"alpha": 0.5}, 2 ** 20),
]


def build_cli(seed: int, workdir: Path, smoke: bool = False, inprocess: bool = False) -> list[Op]:
    """A schedule of `gentropies` invocations on files written under ``workdir``.

    With ``inprocess`` each op calls ``gentropies.cli.main(argv)`` in this
    process instead of starting a child, for the traced run.
    """
    shrink = 6 if smoke else 0
    rng = np.random.default_rng(seed)
    ops = []
    for i, (name, flags, fmt, sizes) in enumerate(CLI_COMPUTE):
        dists = [_draw(rng, 2 ** max(k - shrink, 2)).tolist() for k in sizes]
        path = workdir / f"compute{i}.{fmt}"
        nbytes = _write(path, fmt, dists, "p")

        @functools.cache
        def expected(name=name, flags=flags, dists=dists):
            family = _family(name, flags)
            return "".join(_fmt(G.entropy(family, G.make_distribution(d))) for d in dists)

        ops.append(_cli_op("compute", f"{name}{flags} {fmt} n={[len(d) for d in dists]}",
                           ["compute", "--family", name, *_flag_args(flags), str(path)],
                           expected, inprocess, nbytes))
    for i, (cmd, name, flags, fmt, n_rows, (lo, hi)) in enumerate(CLI_JOINT):
        n_rows = max(n_rows >> shrink, 2)
        lengths = rng.integers(max(lo >> shrink, 1), max(hi >> shrink, 1) + 1, size=n_rows)
        cells = [rng.exponential(1.0, int(m)) for m in lengths]
        total = sum(c.sum() for c in cells)
        rows = [(c / total).tolist() for c in cells]
        path = workdir / f"joint{i}.{fmt}"
        nbytes = _write(path, fmt, rows, "rows")
        compute = G.conditional_entropy if cmd == "conditional" else G.joint_entropy

        @functools.cache
        def expected(name=name, flags=flags, rows=rows, compute=compute):
            return _fmt(compute(_family(name, flags), G.make_joint(rows)))

        ops.append(_cli_op(cmd, f"{name}{flags} {fmt} rows={n_rows} cells={sum(lengths)}",
                           [cmd, "--family", name, *_flag_args(flags), str(path)],
                           expected, inprocess, nbytes))
    trials = SUITE_TRIALS[smoke]
    for name, flags, expect_violation in CLI_CHECK:
        check_seed = int(rng.integers(0, 2 ** 63))

        @functools.cache
        def expected(name=name, flags=flags, check_seed=check_seed):
            cfg = G.CheckConfig(_family(name, flags), trials=trials, seed=check_seed)
            return G.run_suite(cfg).to_json()

        argv = ["check", "--family", name, *_flag_args(flags), "--trials", str(trials),
                "--seed", str(check_seed)] + (["--expect-violation"] if expect_violation else [])
        ops.append(_cli_op("check", f"{name}{flags} trials={trials}"
                           + (" --expect-violation" if expect_violation else ""),
                           argv, expected, inprocess))
    for i, (name, fixed, key, spec, fmt, k) in enumerate(CLI_SWEEP):
        dist = _draw(rng, 2 ** max(k - shrink, 2)).tolist()
        path = workdir / f"sweep{i}.{fmt}"
        nbytes = _write(path, fmt, [dist], "p")

        @functools.cache
        def expected(name=name, fixed=fixed, key=key, spec=spec, dist=dist):
            d = G.make_distribution(dist)
            lines = ["param,entropy\n"]
            for v in G.cli._parse_range(spec):
                family = _family(name, {**fixed, key: v})
                lines.append(f"{v:.15g},{G.entropy(family, d):.15g}\n")
            return "".join(lines)

        ops.append(_cli_op("sweep", f"{name} --{key} {spec} {fmt} n={len(dist)}",
                           # --key=spec: a range starting with '-' is not an option
                           ["sweep", "--family", name, *_flag_args(fixed), f"--{key}={spec}",
                            str(path)], expected, inprocess, nbytes))
    for name, flags, n in CLI_TRACE:
        ops.append(_cli_op("trace", f"{name}{flags} n={n}",
                           ["trace", "--family", name, *_flag_args(flags), "--n", str(n)],
                           functools.cache(lambda name=name, flags=flags, n=n:
                                           _fmt(G.uniform_trace(_family(name, flags), n))),
                           inprocess))
    return [ops[i] for i in rng.permutation(len(ops))]
