"""Numerical verification harness for the strong-additivity axiom systems.

Each residual operation measures one identity these entropy families are
characterized by: strong additivity on arbitrary ragged joints, additivity
on direct products and on the n-fold fair-coin chain, the closed-form
uniform trace, and the reconstruction of a rational distribution's entropy
from its even refinement.  `run_suite` draws seeded random inputs, runs every check plus
the fixed counterexample probe, and aggregates residuals into a
reproducible report: the same configuration always serializes to identical
bytes.

Verdicts compare the residual relative to 1 + |reference value| against the
configured tolerance; a check whose absolute residual reaches
``VIOLATION_THRESHOLD`` is flagged as a detected violation, which is the
expected outcome for escort families with exponent beta != 1.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Sequence

import numpy as np

from ._stable import exact_sum, segment_sums
from .distributions import (
    Distribution,
    JointDistribution,
    direct_product,
    flatten,
    marginal,
    refinement_joint,
    uniform,
)
from .entropies import (
    EntropyFamily,
    conditional_entropy,
    entropy,
    family_name,
    family_params,
    joint_entropy,
    uniform_trace,
)
from .errors import ConfigError, DimensionError, Overflow

#: absolute residual at which a must-fail check counts as a detected violation.
VIOLATION_THRESHOLD = 1e-3

#: The fixed probe joint ((1/2, 0), (1/4, 1/4)): marginal (1/2, 1/2) with
#: conditionals (1, 0) and (1/2, 1/2), the pair that forces the escort
#: exponent to 1 in the uniqueness proofs.
PROBE_JOINT = JointDistribution(((0.5, 0.0), (0.25, 0.25)))

PRNG_NAME = "numpy.random.PCG64"

#: Longest fair-coin chain `chain_residual` builds: the chain has 2**n
#: float64 cells (32 MiB at n = 22), and the cache keeps the shorter ones too.
MAX_CHAIN_LENGTH = 22


def _strong_additivity(family, joint) -> tuple[float, float]:
    whole = joint_entropy(family, joint)
    parts = family.composition.add(
        entropy(family, marginal(joint)), conditional_entropy(family, joint)
    )
    return abs(whole - parts), abs(whole)


def strong_additivity_residual(family: EntropyFamily, joint: JointDistribution) -> float:
    """|H(joint) - H(marginal) (+) H(conditional)| with the family's composition."""
    return _strong_additivity(family, joint)[0]


def counterexample_probe(family: EntropyFamily) -> float:
    """Strong-additivity residual on the fixed probe joint.

    Vanishes (to rounding) exactly for the strongly additive members; stays
    above ~1e-1 for escort exponents beta != 1.
    """
    return _strong_additivity(family, PROBE_JOINT)[0]


@lru_cache(maxsize=32)
def _chain_flat(n: int) -> Distribution:
    if n == 1:
        return uniform(2)
    return flatten(direct_product(_chain_flat(n - 1), uniform(2)))


def _chain(family, n) -> tuple[float, float]:
    value = entropy(family, _chain_flat(n))
    d = family.composition
    expected = d.h(n * d.h_inv(entropy(family, uniform(2))))
    return abs(value - expected), abs(value)


def chain_residual(family: EntropyFamily, n: int) -> float:
    """Additivity defect of the n-fold direct power of the fair coin.

    Additive families are checked against n * H(U_2); HCT families against
    h(n * h_inv(T(U_2))) with the family's deformation.  The chain is built
    literally and has 2**n cells (cached across calls), so n is capped at
    ``MAX_CHAIN_LENGTH``; longer chains raise :class:`DimensionError` before
    anything is built.
    """
    if not 1 <= n <= MAX_CHAIN_LENGTH:
        raise DimensionError(
            f"chain length must be in 1..{MAX_CHAIN_LENGTH}, got {n}"
        )
    return _chain(family, n)[0]


def _trace(family, n) -> tuple[float, float]:
    value = entropy(family, uniform(n))
    return abs(value - uniform_trace(family, n)), abs(value)


def uniform_trace_residual(family: EntropyFamily, n: int) -> float:
    """|entropy at U_n - closed-form uniform trace|."""
    return _trace(family, n)[0]


def _refinement(family, counts) -> tuple[float, float]:
    joint = refinement_joint(counts)
    direct = entropy(family, marginal(joint))
    whole = joint_entropy(family, joint)
    rebuilt = family.composition.subtract(whole, conditional_entropy(family, joint))
    return abs(direct - rebuilt), abs(direct)


def refinement_consistency(family: EntropyFamily, counts: Sequence[int]) -> float:
    """Residual of reconstructing H(m_1/m, ..., m_n/m) from its refinement.

    The refinement joint has uniform conditional rows, so for a strongly
    additive family the marginal entropy must equal the joint entropy minus
    (deformed-minus for HCT) the conditional entropy.
    """
    return _refinement(family, counts)[0]


def _product(family, p, q) -> tuple[float, float]:
    whole = joint_entropy(family, direct_product(p, q))
    parts = family.composition.add(entropy(family, p), entropy(family, q))
    return abs(whole - parts), abs(whole)


def product_additivity_residual(
    family: EntropyFamily, p: Distribution, q: Distribution
) -> float:
    """Additivity defect on the direct product of two distributions."""
    return _product(family, p, q)[0]


# ---------------------------------------------------------------------------
# Seeded suite


@dataclass(frozen=True)
class CheckConfig:
    """Configuration of one `run_suite` invocation."""

    family: EntropyFamily
    trials: int = 100
    max_rows: int = 8
    max_cols: int = 8
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.max_rows < 2:
            raise ConfigError(f"max_rows must be >= 2, got {self.max_rows}")
        if self.max_cols < 1:
            raise ConfigError(f"max_cols must be >= 1, got {self.max_cols}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not self.tolerance > 0.0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance!r}")


@dataclass(frozen=True)
class CheckRecord:
    """Aggregated residuals of one named check."""

    name: str
    max_residual: float
    mean_residual: float
    max_relative_residual: float
    mean_relative_residual: float
    worst_input: Any
    verdict: str


@dataclass(frozen=True)
class CheckReport:
    """Everything needed to reproduce and judge one suite run."""

    family: str
    params: dict[str, float]
    seed: int
    prng: str
    checks: tuple[CheckRecord, ...]
    verdict: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "params": self.params,
            "seed": self.seed,
            "prng": self.prng,
            "checks": [
                {
                    "name": c.name,
                    "max_residual": c.max_residual,
                    "mean_residual": c.mean_residual,
                    "max_relative_residual": c.max_relative_residual,
                    "mean_relative_residual": c.mean_relative_residual,
                    "worst_input": c.worst_input,
                    "verdict": c.verdict,
                }
                for c in self.checks
            ],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _random_joint(rng: np.random.Generator, max_rows: int, max_cols: int) -> JointDistribution:
    # rows with marginal below 1e-12 are excluded by redrawing the joint,
    # so conditionals are always defined
    while True:
        n_rows = int(rng.integers(2, max_rows + 1))
        lengths = rng.integers(1, max_cols + 1, size=n_rows)
        rows = [rng.exponential(1.0, size=int(m)) for m in lengths]
        total = float(sum(float(r.sum()) for r in rows))
        flat = np.concatenate(rows) / total
        bounds = [0, *itertools.accumulate(lengths.tolist())]
        if min(segment_sums(flat, bounds)) >= 1e-12:
            return JointDistribution._wrap(flat / exact_sum(flat), bounds)


def _random_distribution(rng: np.random.Generator, max_dim: int) -> Distribution:
    dim = int(rng.integers(2, max(max_dim, 2) + 1))
    e = rng.exponential(1.0, size=dim)
    p = e / e.sum()
    return Distribution._wrap(p / exact_sum(p))


def _random_counts(rng: np.random.Generator, max_rows: int, max_cols: int) -> tuple[int, ...]:
    length = int(rng.integers(2, max_rows + 1))
    return tuple(int(c) for c in rng.integers(1, max_cols + 1, size=length))


def _aggregate(
    name: str,
    results: Iterable[tuple[float, float, Any]],
    tolerance: float,
) -> CheckRecord:
    residuals = []
    relatives = []
    worst_rel = -1.0
    worst_input: Any = None
    for residual, scale, described in results:
        if not math.isfinite(residual):
            raise Overflow(f"{name} residual is not finite: {residual!r}")
        relative = residual / (1.0 + scale)
        residuals.append(residual)
        relatives.append(relative)
        if relative > worst_rel:
            worst_rel = relative
            worst_input = described
    max_abs = max(residuals)
    if worst_rel <= tolerance:
        verdict = "pass"
    elif max_abs >= VIOLATION_THRESHOLD:
        verdict = "violation detected"
    else:
        verdict = "fail"
    return CheckRecord(
        name=name,
        max_residual=max_abs,
        mean_residual=math.fsum(residuals) / len(residuals),
        max_relative_residual=worst_rel,
        mean_relative_residual=math.fsum(relatives) / len(relatives),
        worst_input=worst_input,
        verdict=verdict,
    )


def _joint_as_input(joint: JointDistribution) -> dict[str, Any]:
    return {"rows": [list(r) for r in joint.rows]}


def run_suite(cfg: CheckConfig) -> CheckReport:
    """Run every residual check plus the fixed probe under one seed.

    Inputs are drawn from a PCG64 generator in a fixed order (ragged
    joints, then product pairs, then refinement counts), so identical
    configurations produce byte-identical reports.  Aggregation uses max
    and arithmetic mean only and is therefore order-independent.  A
    non-finite residual raises :class:`Overflow` naming its check.
    """
    family = cfg.family
    rng = np.random.default_rng(cfg.seed)
    joints = [_random_joint(rng, cfg.max_rows, cfg.max_cols) for _ in range(cfg.trials)]
    pairs = [
        (_random_distribution(rng, cfg.max_rows), _random_distribution(rng, cfg.max_cols))
        for _ in range(cfg.trials)
    ]
    counts_list = [_random_counts(rng, cfg.max_rows, cfg.max_cols) for _ in range(cfg.trials)]
    chain_lengths = range(1, 13)
    trace_dims = [2 ** k for k in range(1, 15)]

    records = [
        _aggregate(
            "strong_additivity",
            (
                (*_strong_additivity(family, j), _joint_as_input(j))
                for j in joints
            ),
            cfg.tolerance,
        ),
        _aggregate(
            "counterexample_probe",
            [(*_strong_additivity(family, PROBE_JOINT), _joint_as_input(PROBE_JOINT))],
            cfg.tolerance,
        ),
        _aggregate(
            "product_additivity",
            (
                (*_product(family, p, q), {"p": list(p.probs), "q": list(q.probs)})
                for p, q in pairs
            ),
            cfg.tolerance,
        ),
        _aggregate(
            "refinement_consistency",
            (
                (*_refinement(family, counts), {"counts": list(counts)})
                for counts in counts_list
            ),
            cfg.tolerance,
        ),
        _aggregate(
            "chain",
            ((*_chain(family, n), {"n": n}) for n in chain_lengths),
            cfg.tolerance,
        ),
        _aggregate(
            "uniform_trace",
            ((*_trace(family, n), {"n": n}) for n in trace_dims),
            cfg.tolerance,
        ),
    ]
    records.sort(key=lambda r: r.name)
    if all(r.verdict == "pass" for r in records):
        overall = "pass"
    elif any(r.verdict == "violation detected" for r in records):
        overall = "violation detected"
    else:
        overall = "fail"
    return CheckReport(
        family=family_name(family),
        params=family_params(family),
        seed=cfg.seed,
        prng=PRNG_NAME,
        checks=tuple(records),
        verdict=overall,
    )
