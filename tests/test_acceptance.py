"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline.  Every tolerance is stated next to its assertion.
"""

import math
import time

import numpy as np

from conftest import constrained_grid
from gentropies import (
    CheckConfig,
    Deformation,
    ExponentialGenerator,
    LinearGenerator,
    chain_residual,
    conditional_entropy,
    counterexample_probe,
    entropy,
    general_escort,
    havrda_charvat,
    joint_entropy,
    make_distribution,
    make_joint,
    quasi_mean,
    renyi,
    run_suite,
    shannon,
    tsallis,
    uniform,
    uniform_trace,
)
from gentropies.cli import main
from reference import ref_joint_entropy

GRID = constrained_grid()

PROBE = make_joint(((0.5, 0.0), (0.25, 0.25)))

# oracle-computed literals (50-digit mpmath, see tests/reference.py)
LOG2_4_3 = 0.4150374992788438
LOG2_8_3 = 1.415037499278844


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_necessity_suite():
    """Strong additivity holds across the constrained family grid."""
    start = time.monotonic()
    failures = []
    worst = 0.0
    worst_label = ""
    for label, family in GRID:
        report = run_suite(
            CheckConfig(
                family=family, trials=1000, max_rows=8, max_cols=8,
                seed=20260809, tolerance=1e-9,
            )
        )
        strong = next(c for c in report.checks if c.name == "strong_additivity")
        if strong.max_relative_residual > worst:
            worst = strong.max_relative_residual
            worst_label = label
        if strong.max_relative_residual > 1e-9 or report.verdict != "pass":
            failures.append(f"{label}: rel={strong.max_relative_residual:.3e} {report.verdict}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _verdict(
        "criterion 1: necessity suite",
        ok,
        f"12 families x 1000 joints, worst rel residual {worst:.2e} "
        f"({worst_label}), {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_2_worked_probe_identities():
    """Frozen probe values and their composition identities, within 1e-12."""
    checks = []

    sh = shannon(-1.0)
    checks.append(abs(joint_entropy(sh, PROBE) - 1.5) <= 1e-12)
    checks.append(abs(entropy(sh, make_distribution((0.5, 0.5))) - 1.0) <= 1e-12)
    checks.append(abs(conditional_entropy(sh, PROBE) - 0.5) <= 1e-12)
    checks.append(abs(joint_entropy(sh, PROBE) - (1.0 + conditional_entropy(sh, PROBE))) <= 1e-12)

    r2 = renyi(2.0)
    checks.append(abs(joint_entropy(r2, PROBE) - LOG2_8_3) <= 1e-12)
    checks.append(abs(conditional_entropy(r2, PROBE) - LOG2_4_3) <= 1e-12)
    checks.append(abs(joint_entropy(r2, PROBE) - (1.0 + conditional_entropy(r2, PROBE))) <= 1e-12)
    checks.append(abs(ref_joint_entropy(r2, [[0.5, 0.0], [0.25, 0.25]]) - LOG2_8_3) <= 1e-15)

    t2 = tsallis(2.0)
    composed = Deformation(-1.0).add(0.5, 0.25)
    checks.append(abs(joint_entropy(t2, PROBE) - 0.625) <= 1e-12)
    checks.append(abs(conditional_entropy(t2, PROBE) - 0.25) <= 1e-12)
    checks.append(abs(composed - 0.625) <= 1e-12)

    _verdict(
        "criterion 2: worked probe identities",
        all(checks),
        f"{sum(checks)}/{len(checks)} identities at 1e-12",
    )


def test_criterion_3_forcing_suite():
    """Escort exponent beta != 1 is detected; beta == 1 passes the probe."""
    # beta = alpha - tau*lam; both deformation branches are exercised
    violating = [
        general_escort(1.0, -1.0, -0.5),   # beta = 0.5
        general_escort(0.5, -1.0, 0.0),    # beta = 0.5, lam = 0 branch
        general_escort(1.0, -1.0, 1.0),    # beta = 2
        general_escort(2.0, -1.0, 0.0),    # beta = 2, lam = 0 branch
        general_escort(2.0, -1.0, 1.0),    # beta = 3
        general_escort(3.0, -1.0, 0.0),    # beta = 3, lam = 0 branch
    ]
    additive = [
        general_escort(1.0, -1.0, 0.0),
        general_escort(1.0, -2.0, 0.0),
        general_escort(2.0, -1.0, -1.0),
        general_escort(0.5, -1.0, 0.5),
    ]
    violations = [counterexample_probe(f) for f in violating]
    identities = [counterexample_probe(f) for f in additive]
    ok = all(v >= 1e-3 for v in violations) and all(r <= 1e-10 for r in identities)
    _verdict(
        "criterion 3: forcing suite",
        ok,
        f"beta!=1 probe residuals in [{min(violations):.3e}, {max(violations):.3e}] "
        f">= 1e-3; beta=1 residuals <= {max(identities):.3e}",
    )


def test_criterion_4_analyticity_trace():
    """Uniform trace at the dyadic dimensions and the fair-coin chain."""
    worst_trace = 0.0
    worst_chain = 0.0
    trace_ok = True
    for k in range(1, 21):
        u = uniform(2 ** k)
        for label, family in GRID:
            value = entropy(family, u)
            residual = abs(value - uniform_trace(family, 2 ** k))
            scaled = residual / (1.0 + abs(value))
            worst_trace = max(worst_trace, scaled)
            if scaled > 1e-12:
                trace_ok = False
    chain_ok = True
    for label, family in GRID:
        for n in range(1, 21):
            residual = chain_residual(family, n)
            worst_chain = max(worst_chain, residual)
            if residual > 1e-9:
                chain_ok = False
    _verdict(
        "criterion 4: analyticity trace",
        trace_ok and chain_ok,
        f"trace rel residual <= {worst_trace:.2e} (tol 1e-12) over n=2..2^20, "
        f"chain residual <= {worst_chain:.2e} (tol 1e-9) for n<=20",
    )


def test_criterion_5_algebra_suite():
    """Deformed-addition group laws and the isomorphism, 10^4 seeded samples."""
    rng = np.random.default_rng(550550)
    n = 10_000
    xs = rng.uniform(-10.0, 10.0, n)
    ys = rng.uniform(-10.0, 10.0, n)
    zs = rng.uniform(-10.0, 10.0, n)
    lams = rng.uniform(-2.0, 2.0, n)
    worst = {"assoc": 0.0, "inverse": 0.0, "iso": 0.0}
    commutative = True
    identity = True
    for x, y, z, lam in zip(xs, ys, zs, lams):
        d = Deformation(lam)
        if d.add(x, y) != d.add(y, x):
            commutative = False
        if d.add(x, 0.0) != x:
            identity = False
        left = d.add(d.add(x, y), z)
        right = d.add(x, d.add(y, z))
        worst["assoc"] = max(worst["assoc"], abs(left - right) / (1.0 + abs(left)))
        neg = d.negate(x)
        worst["inverse"] = max(worst["inverse"], abs(d.add(x, neg)) / (1.0 + abs(neg)))
        iso = d.h(x + y)
        worst["iso"] = max(worst["iso"], abs(iso - d.add(d.h(x), d.h(y))) / (1.0 + abs(iso)))
    ok = commutative and identity and all(v <= 1e-9 for v in worst.values())
    _verdict(
        "criterion 5: algebra suite",
        ok,
        "commutativity/identity exact, "
        f"assoc {worst['assoc']:.2e}, inverse {worst['inverse']:.2e}, "
        f"isomorphism {worst['iso']:.2e} (tol 1e-9)",
    )


def test_criterion_6_mean_suite():
    """Quasi-linear mean laws over 10^4 seeded generator/weight samples."""
    rng = np.random.default_rng(660660)
    n = 10_000
    worst = {"idem": 0.0, "internal": 0.0, "monotone": 0.0, "affine": 0.0}
    for _ in range(n):
        dim = int(rng.integers(2, 7))
        raw = rng.exponential(1.0, dim)
        weights = make_distribution((raw / raw.sum()).tolist())
        values = rng.uniform(-6.0, 6.0, dim).tolist()
        if rng.integers(2):
            kappa = float(rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0)))
            gen = ExponentialGenerator(kappa=kappa)
            alt = ExponentialGenerator(
                kappa=kappa,
                gamma=float(rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))),
                shift=float(rng.uniform(-3.0, 3.0)),
            )
        else:
            gen = LinearGenerator(c=float(rng.uniform(0.25, 4.0)))
            alt = LinearGenerator(
                c=float(rng.uniform(0.25, 4.0) * rng.choice((-1.0, 1.0))),
                shift=float(rng.uniform(-3.0, 3.0)),
            )

        const = values[0]
        idem = quasi_mean(gen, weights, [const] * dim)
        worst["idem"] = max(worst["idem"], abs(idem - const) / (1.0 + abs(const)))

        mean = quasi_mean(gen, weights, values)
        lo, hi = min(values), max(values)
        overshoot = max(lo - mean, mean - hi, 0.0)
        worst["internal"] = max(worst["internal"], overshoot / (1.0 + abs(hi)))

        bumped = list(values)
        bumped[0] += float(rng.uniform(0.1, 1.0))
        drop = mean - quasi_mean(gen, weights, bumped)
        worst["monotone"] = max(worst["monotone"], drop / (1.0 + abs(mean)))

        # alt differs from gen by an affine output map only (same kappa, or
        # any linear generator), so the two means must agree
        other = quasi_mean(alt, weights, values)
        worst["affine"] = max(worst["affine"], abs(mean - other) / (1.0 + abs(mean)))
    ok = all(v <= 1e-10 for v in worst.values())
    _verdict(
        "criterion 6: mean suite",
        ok,
        f"idempotence {worst['idem']:.2e}, internality {worst['internal']:.2e}, "
        f"monotonicity {worst['monotone']:.2e}, affine invariance {worst['affine']:.2e} "
        "(tol 1e-10)",
    )


def test_criterion_7_limit_suite():
    """alpha -> 1 members approach their Shannon member at |eps| = 1e-5.

    The lam = 1 - alpha (Tsallis) normalization limits to the natural-log
    Shannon member, tau = -ln 2 in this parameterization; the bit-normalized
    Havrda-Charvat member is the one limiting to tau = -1.  The Renyi bound
    is against tau = -1 as stated.
    """
    rng = np.random.default_rng(770770)
    bits = shannon(-1.0)
    nats = shannon(-math.log(2.0))
    worst_renyi = 0.0
    worst_tsallis = 0.0
    worst_hc = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        raw = rng.exponential(1.0, dim)
        p = make_distribution((raw / raw.sum()).tolist())
        base_bits = entropy(bits, p)
        base_nats = entropy(nats, p)
        for eps in (1e-5, -1e-5):
            worst_renyi = max(worst_renyi, abs(entropy(renyi(1.0 + eps), p) - base_bits))
            worst_tsallis = max(worst_tsallis, abs(entropy(tsallis(1.0 + eps), p) - base_nats))
            worst_hc = max(worst_hc, abs(entropy(havrda_charvat(1.0 + eps), p) - base_bits))
    ok = worst_renyi <= 1e-3 and worst_tsallis <= 1e-3 and worst_hc <= 1e-3
    _verdict(
        "criterion 7: limit suite",
        ok,
        f"renyi {worst_renyi:.2e}, tsallis {worst_tsallis:.2e} (vs tau=-ln2), "
        f"havrda-charvat {worst_hc:.2e} (tol 1e-3)",
    )


def test_criterion_8_cli_conformance(tmp_path, capsys):
    """The three check exit codes and byte-identical report reproduction."""
    codes = []
    codes.append(
        main(
            ["check", "--family", "tsallis", "--alpha", "2", "--trials", "1000",
             "--seed", "7", "--output", str(tmp_path / "pass.json")]
        )
    )
    codes.append(
        main(
            ["check", "--family", "general", "--alpha", "2", "--tau", "-1",
             "--lambda", "1", "--trials", "100", "--seed", "7",
             "--output", str(tmp_path / "viol.json"), "--expect-violation"]
        )
    )
    codes.append(
        main(
            ["check", "--family", "general", "--alpha", "2", "--tau", "-1",
             "--lambda", "1", "--trials", "100", "--seed", "7",
             "--output", str(tmp_path / "viol2.json")]
        )
    )
    for name in ("a.json", "b.json"):
        code = main(
            ["check", "--family", "renyi", "--alpha", "2", "--trials", "200",
             "--seed", "123", "--output", str(tmp_path / name)]
        )
        assert code == 0
    reproducible = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    capsys.readouterr()
    ok = codes == [0, 0, 2] and reproducible
    _verdict(
        "criterion 8: cli conformance",
        ok,
        f"check exit codes {codes} (expected [0, 0, 2]), "
        f"reports byte-identical: {reproducible}",
    )
