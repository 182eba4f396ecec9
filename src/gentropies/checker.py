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
from typing import Any, Callable, Sequence

import numpy as np

from ._stable import segment_sums, span_cells, spans_of
from .distributions import (
    Distribution,
    JointDistribution,
    _check_counts,
    group_marginals,
    uniform,
)
from .entropies import (
    EntropyFamily,
    conditional_entropies,
    entropy,
    family_name,
    family_params,
    span_entropies,
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

#: Longest fair-coin chain `chain_residual` checks: each call builds the
#: chain's 2**n float64 cells (32 MiB at n = 22).
MAX_CHAIN_LENGTH = 22

#: Largest ``trials * max(max_rows * max_cols, MIN_TRIAL_CELLS)`` that
#: `run_suite` accepts.  The suite draws every trial before checking any:
#: 8 bytes per drawn cell (the joints take a quarter of the bound on average,
#: 32 MiB at the bound) plus about a kilobyte of Python objects per trial.
#: The trials are normalized in chunks of ``_BATCH_TRIALS``, so the draws
#: waiting for a chunk's normalization add no more than one chunk.
MAX_SUITE_CELLS = 2 ** 24

#: Least charge per trial against ``MAX_SUITE_CELLS`` (the default 8 x 8
#: shape), for the Python objects every drawn trial holds whatever its shape:
#: a joint, its row bounds, two distributions and a tuple of counts, each
#: joint and distribution a view of its chunk's flat array (0.85-1.1 KB per
#: trial from 2 x 1 to 8 x 8, cells included).
MIN_TRIAL_CELLS = 64

#: Trials per batch of a check in `run_suite`: this bounds the arrays one
#: batch allocates, whatever the number of trials.
_BATCH_TRIALS = 1024


def _concat(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The arrays end to end, and the span each one occupies."""
    flat = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    return flat, spans_of(np.cumsum([0, *map(len, arrays)]))


def _batch(joints: Sequence[JointDistribution]) -> tuple[JointDistribution, list[int]]:
    """All rows of ``joints`` end to end in one joint, and the row index where
    each joint starts, followed by the row count."""
    if len(joints) == 1:
        return joints[0], [0, len(joints[0])]
    bounds, groups = [0], [0]
    for joint in joints:
        offset = bounds[-1]
        bounds += [offset + b for b in joint._bounds[1:]]
        groups.append(len(bounds) - 1)
    return JointDistribution._wrap(np.concatenate([j._flat for j in joints]), bounds), groups


def _cell_spans(bounds: Sequence[int], groups: Sequence[int]) -> np.ndarray:
    """The cells of each group of rows, from the row ``bounds``."""
    return spans_of(np.asarray(bounds)[groups])


# Each check below takes a batch of inputs and returns the residual of every
# input and the magnitude of its reference value; the public functions are
# its one-input case.


def _strong_additivity(family, joints) -> tuple[list[float], list[float]]:
    batch, groups = _batch(joints)
    whole = span_entropies(family, batch._flat, _cell_spans(batch._bounds, groups))
    margs = group_marginals(batch, groups)
    parts = zip(
        span_entropies(family, margs, spans_of(groups)),
        conditional_entropies(family, batch, groups, margs),
    )
    add = family.composition.add
    return [abs(w - add(m, c)) for w, (m, c) in zip(whole, parts)], [abs(w) for w in whole]


def strong_additivity_residual(family: EntropyFamily, joint: JointDistribution) -> float:
    """|H(joint) - H(marginal) (+) H(conditional)| with the family's composition."""
    return _strong_additivity(family, [joint])[0][0]


def counterexample_probe(family: EntropyFamily) -> float:
    """Strong-additivity residual on the fixed probe joint.

    Vanishes (to rounding) exactly for the strongly additive members; stays
    above ~1e-1 for escort exponents beta != 1.
    """
    return _strong_additivity(family, [PROBE_JOINT])[0][0]


def _chain(family, lengths) -> tuple[list[float], list[float]]:
    # every product of powers of two is exact, so U_2^{(x)n} is U_{2**n} bit for bit
    values = span_entropies(family, *_concat([uniform(2 ** n)._array for n in lengths]))
    d = family.composition
    coin = d.h_inv(entropy(family, uniform(2)))
    return [abs(v - d.h(n * coin)) for v, n in zip(values, lengths)], [abs(v) for v in values]


def chain_residual(family: EntropyFamily, n: int) -> float:
    """Additivity defect of the n-fold direct power of the fair coin.

    Additive families are checked against n * H(U_2); HCT families against
    h(n * h_inv(T(U_2))) with the family's deformation.  The chain is
    U_{2**n}, which the products of powers of two reproduce exactly; it has
    2**n cells, so n is capped at ``MAX_CHAIN_LENGTH`` and longer chains
    raise :class:`DimensionError` before anything is built.
    """
    if not 1 <= n <= MAX_CHAIN_LENGTH:
        raise DimensionError(
            f"chain length must be in 1..{MAX_CHAIN_LENGTH}, got {n}"
        )
    return _chain(family, [n])[0][0]


def _trace(family, dims) -> tuple[list[float], list[float]]:
    values = span_entropies(family, *_concat([uniform(n)._array for n in dims]))
    return (
        [abs(v - uniform_trace(family, n)) for v, n in zip(values, dims)],
        [abs(v) for v in values],
    )


def uniform_trace_residual(family: EntropyFamily, n: int) -> float:
    """|entropy at U_n - closed-form uniform trace|."""
    return _trace(family, [n])[0][0]


def _refinement(family, counts_list) -> tuple[list[float], list[float]]:
    # the refinement joints end to end: joint t has one row of m_i cells of
    # 1/m per count m_i of ``counts_list[t]``, m their sum
    bounds = [0, *itertools.accumulate(int(c) for counts in counts_list for c in counts)]
    groups = [0, *itertools.accumulate(map(len, counts_list))]
    cells = _cell_spans(bounds, groups)
    sizes = cells[:, 1] - cells[:, 0]
    batch = JointDistribution._wrap(np.repeat([1.0 / m for m in sizes.tolist()], sizes), bounds)
    margs = group_marginals(batch, groups)
    direct = span_entropies(family, margs, spans_of(groups))
    whole = span_entropies(family, batch._flat, cells)
    subtract = family.composition.subtract
    rebuilt = [
        subtract(w, c)
        for w, c in zip(whole, conditional_entropies(family, batch, groups, margs))
    ]
    return [abs(d - r) for d, r in zip(direct, rebuilt)], [abs(d) for d in direct]


def refinement_consistency(family: EntropyFamily, counts: Sequence[int]) -> float:
    """Residual of reconstructing H(m_1/m, ..., m_n/m) from its refinement.

    The refinement joint has uniform conditional rows, so for a strongly
    additive family the marginal entropy must equal the joint entropy minus
    (deformed-minus for HCT) the conditional entropy.
    """
    _check_counts(counts)
    return _refinement(family, [counts])[0][0]


def _product(family, pairs) -> tuple[list[float], list[float]]:
    ps, p_spans = _concat([p._array for p, _ in pairs])
    qs, q_spans = _concat([q._array for _, q in pairs])
    # the outer products end to end: one row per entry of p, its pair's q
    lengths = p_spans[:, 1] - p_spans[:, 0]
    rows = np.repeat(q_spans, lengths, axis=0)
    cells = np.repeat(ps, rows[:, 1] - rows[:, 0]) * span_cells(qs, rows)
    sizes = lengths * (q_spans[:, 1] - q_spans[:, 0])
    whole = span_entropies(family, cells, spans_of(np.cumsum([0, *sizes])))
    parts = zip(span_entropies(family, ps, p_spans), span_entropies(family, qs, q_spans))
    add = family.composition.add
    return [abs(w - add(a, b)) for w, (a, b) in zip(whole, parts)], [abs(w) for w in whole]


def product_additivity_residual(
    family: EntropyFamily, p: Distribution, q: Distribution
) -> float:
    """Additivity defect on the direct product of two distributions."""
    return _product(family, [(p, q)])[0][0]


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


def _normalized(parts: Sequence[np.ndarray], totals: Sequence[float]):
    """Each ``parts[t] / totals[t]`` divided by its own exact sum, end to
    end, and where each part starts, followed by the length."""
    sizes = [len(part) for part in parts]
    flat = np.concatenate(parts)
    flat /= np.repeat(totals, sizes)
    starts = [0, *itertools.accumulate(sizes)]
    flat /= np.repeat(segment_sums(flat, starts), sizes)
    return flat, starts


def _rows_clear(row_sums: Sequence[float], total: float) -> bool:
    """Whether numpy's ``row_sums`` alone show that every row of the cells
    divided by ``total`` sums exactly to 1e-12 or more: the factor 2 covers
    the rounding of the row sums and of the division (rows below 2**50 cells)."""
    return min(row_sums) > 2e-12 * total


def _random_joints(
    rng: np.random.Generator, trials: int, max_rows: int, max_cols: int
) -> list[JointDistribution]:
    """``trials`` joints, drawn one after another, normalized all at once."""
    cells, totals, row_bounds = [], [], []
    for _ in range(trials):
        # rows with marginal below 1e-12 are excluded by redrawing the joint,
        # so conditionals are always defined
        while True:
            n_rows = int(rng.integers(2, max_rows + 1))
            lengths = rng.integers(1, max_cols + 1, size=n_rows)
            bounds = [0, *itertools.accumulate(lengths.tolist())]
            drawn = rng.exponential(1.0, size=bounds[-1])
            # numpy's row by row sums, whose rounding the reports depend on
            rows = [float(drawn[i:j].sum()) for i, j in itertools.pairwise(bounds)]
            total = float(sum(rows))
            if _rows_clear(rows, total) or min(segment_sums(drawn / total, bounds)) >= 1e-12:
                break
        cells.append(drawn)
        totals.append(total)
        row_bounds.append(bounds)
    flat, starts = _normalized(cells, totals)
    return [
        JointDistribution._wrap(flat[i:j], bounds)
        for i, j, bounds in zip(starts, starts[1:], row_bounds)
    ]


def _random_joint(rng: np.random.Generator, max_rows: int, max_cols: int) -> JointDistribution:
    return _random_joints(rng, 1, max_rows, max_cols)[0]


def _random_distributions(rng: np.random.Generator, max_dims: Sequence[int]) -> list[Distribution]:
    """One distribution per entry of ``max_dims``, drawn one after another,
    normalized all at once."""
    draws = []
    for max_dim in max_dims:
        dim = int(rng.integers(2, max(max_dim, 2) + 1))
        draws.append(rng.exponential(1.0, size=dim))
    flat, starts = _normalized(draws, [e.sum() for e in draws])
    return [Distribution._wrap(flat[i:j]) for i, j in zip(starts, starts[1:])]


def _random_distribution(rng: np.random.Generator, max_dim: int) -> Distribution:
    return _random_distributions(rng, [max_dim])[0]


def _drawn(draw: Callable[[int], list], trials: int) -> list:
    """``draw(n)`` over chunks of up to ``_BATCH_TRIALS`` trials, end to end,
    so that only one chunk's own draws wait for their normalization."""
    out = []
    for start in range(0, trials, _BATCH_TRIALS):
        out += draw(min(_BATCH_TRIALS, trials - start))
    return out


def _random_counts(rng: np.random.Generator, max_rows: int, max_cols: int) -> tuple[int, ...]:
    length = int(rng.integers(2, max_rows + 1))
    return tuple(rng.integers(1, max_cols + 1, size=length).tolist())


def _measure(name: str, check, family, inputs: Sequence) -> tuple[list[float], list[float]]:
    """``check`` over ``inputs``, in batches of up to ``_BATCH_TRIALS``.

    If a batch fails, its inputs are replayed one at a time, so the error
    raised, like a non-finite residual (:class:`Overflow`), is the first
    that a trial-by-trial run would meet.
    """
    residuals, scales = [], []
    for start in range(0, len(inputs), _BATCH_TRIALS):
        batch = inputs[start:start + _BATCH_TRIALS]
        try:
            batch_residuals, batch_scales = check(family, batch)
        except Exception as exc:  # noqa: BLE001 - replayed below, then re-raised
            if len(batch) == 1:
                raise
            failure = exc
        else:
            failure = None
        if failure is not None:
            for one in batch:
                _measure(name, check, family, [one])
            raise failure
        for residual in batch_residuals:
            if not math.isfinite(residual):
                raise Overflow(f"{name} residual is not finite: {residual!r}")
        residuals += batch_residuals
        scales += batch_scales
    return residuals, scales


def _aggregate(
    name: str,
    residuals: Sequence[float],
    scales: Sequence[float],
    inputs: Sequence,
    describe: Callable[[Any], Any],
    tolerance: float,
) -> CheckRecord:
    relatives = [r / (1.0 + s) for r, s in zip(residuals, scales)]
    worst = max(range(len(relatives)), key=relatives.__getitem__)  # the first maximum
    worst_rel = relatives[worst]
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
        worst_input=describe(inputs[worst]),
        verdict=verdict,
    )


def _joint_as_input(joint: JointDistribution) -> dict[str, Any]:
    return {"rows": [list(r) for r in joint.rows]}


def run_suite(cfg: CheckConfig) -> CheckReport:
    """Run every residual check plus the fixed probe under one seed.

    Inputs are drawn from a PCG64 generator in a fixed order (ragged
    joints, then product pairs, then refinement counts), so identical
    configurations produce byte-identical reports.  Each check then runs
    over its trials in batches of up to ``_BATCH_TRIALS``, with the same
    arithmetic per trial as the public residual functions.  Aggregation uses max and arithmetic mean
    only and is therefore order-independent.  A non-finite residual raises
    :class:`Overflow` naming its check.  Every trial is held in memory, so
    a configuration over the ``MAX_SUITE_CELLS`` budget raises
    :class:`ConfigError` before anything is drawn.
    """
    per_trial = max(cfg.max_rows * cfg.max_cols, MIN_TRIAL_CELLS)
    cells = cfg.trials * per_trial
    if cells > MAX_SUITE_CELLS:
        shape = "max_rows * max_cols" if per_trial > MIN_TRIAL_CELLS else "MIN_TRIAL_CELLS"
        raise ConfigError(
            f"trials * {shape} = {cells} exceeds the suite's "
            f"budget of {MAX_SUITE_CELLS} cells"
        )
    family = cfg.family
    rng = np.random.default_rng(cfg.seed)
    rows, cols = cfg.max_rows, cfg.max_cols
    joints = _drawn(lambda n: _random_joints(rng, n, rows, cols), cfg.trials)
    dists = _drawn(lambda n: _random_distributions(rng, [rows, cols] * n), cfg.trials)
    pairs = list(zip(dists[::2], dists[1::2]))
    counts_list = [_random_counts(rng, rows, cols) for _ in range(cfg.trials)]
    chain_lengths = list(range(1, 13))
    trace_dims = [2 ** k for k in range(1, 15)]

    checks = [
        ("strong_additivity", _strong_additivity, joints, _joint_as_input),
        ("counterexample_probe", _strong_additivity, [PROBE_JOINT], _joint_as_input),
        ("product_additivity", _product, pairs,
         lambda pq: {"p": list(pq[0].probs), "q": list(pq[1].probs)}),
        ("refinement_consistency", _refinement, counts_list, lambda c: {"counts": list(c)}),
        ("chain", _chain, chain_lengths, lambda n: {"n": n}),
        ("uniform_trace", _trace, trace_dims, lambda n: {"n": n}),
    ]
    records = [
        _aggregate(name, *_measure(name, check, family, inputs), inputs, describe, cfg.tolerance)
        for name, check, inputs, describe in checks
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
