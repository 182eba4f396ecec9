"""Numerical verification harness for the strong-additivity axiom systems.

Each residual operation measures one identity these entropy families are
characterized by: strong additivity on arbitrary ragged joints, additivity
on direct products and on the n-fold fair-coin chain, the closed-form
uniform trace, and the reconstruction of a rational distribution's entropy
from its even refinement.  `run_suite` draws seeded random inputs, runs
every check plus the fixed counterexample probe, and aggregates residuals
into a reproducible report: the same configuration always serializes to
identical bytes.  It draws through numpy's exported C samplers on the seed's
PCG64 stream, or where they are missing or differ (``_sampler.c_samplers()``
is None) through the Generator methods: the same numbers either way.

Verdicts compare the residual relative to 1 + |reference value| against the
configured tolerance; a check whose absolute residual reaches
``VIOLATION_THRESHOLD`` is flagged as a detected violation, which is the
expected outcome for escort families with exponent beta != 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ._stable import segment_sums, span_cells, spans_of
from .distributions import (
    Distribution,
    JointDistribution,
    _check_counts,
    _integer,
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
#: `run_suite` accepts.  The suite draws every trial before checking any,
#: into one CSR store per check: 8 bytes per drawn cell (the joints take a
#: quarter of the bound on average, 32 MiB at the bound) and per row and
#: trial bound.  The trials are normalized in chunks of ``_BATCH_TRIALS``,
#: so the draws waiting for a chunk's normalization add no more than one chunk.
MAX_SUITE_CELLS = 2 ** 24

#: Least charge per trial against ``MAX_SUITE_CELLS`` (the default 8 x 8
#: shape), for what every trial holds whatever its shape: the stores take
#: 0.18-0.4 KB per trial from 2 x 1 to 8 x 8, and the residuals and their
#: scales about 0.2 KB of Python floats more.
MIN_TRIAL_CELLS = 64

#: Trials per batch of a check in `run_suite`: this bounds the arrays one
#: batch allocates, whatever the number of trials.
_BATCH_TRIALS = 1024


def _starts(lengths) -> np.ndarray:
    """Where each of consecutive pieces of ``lengths`` starts, then the end."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))


class _Trials:
    """Trials in one CSR store: ``flat`` cut into rows of ``row_lengths``
    cells, row k being ``flat[bounds[k]:bounds[k + 1]]``, and the rows into
    trials of ``trial_rows`` rows, trial t being rows ``offsets[t]`` to
    ``offsets[t + 1] - 1``.  A check reads a batch of trials as arrays,
    without an object per trial; slicing gives a run of trials as a store
    over a view of the same cells."""

    __slots__ = ("flat", "bounds", "offsets")

    def __init__(self, flat: np.ndarray, row_lengths, trial_rows) -> None:
        self.flat, self.bounds, self.offsets = flat, _starts(row_lengths), _starts(trial_rows)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, trials: slice) -> _Trials:
        start, stop, _ = trials.indices(len(self))
        rows = self.offsets[start:stop + 1]
        bounds = self.bounds[rows[0]:rows[-1] + 1]
        return _Trials(self.flat[bounds[0]:bounds[-1]], np.diff(bounds), np.diff(rows))

    def rows(self) -> list[list]:
        """Every row, as a list."""
        return [self.flat[i:j].tolist() for i, j in itertools.pairwise(self.bounds.tolist())]


def _trials(inputs, parts: Callable[[Any], tuple[np.ndarray, Sequence[int]]]) -> _Trials:
    """``inputs`` as a store: a store as it is, else one trial per x of ``parts(x)``."""
    if isinstance(inputs, _Trials):
        return inputs
    cells, lengths = zip(*map(parts, inputs))
    flat = cells[0] if len(cells) == 1 else np.concatenate(cells)
    return _Trials(flat, np.concatenate(lengths), list(map(len, lengths)))


# Each check below takes a batch of inputs and returns the residual of every
# input and the magnitude of its reference value; the public functions are
# its one-input case.


def _strong_additivity(family, joints) -> tuple[list[float], list[float]]:
    if isinstance(joints, _Trials) or len(joints) != 1:
        t = _trials(joints, lambda joint: (joint._flat, np.diff(joint._bounds)))
        batch = JointDistribution._wrap(t.flat, t.bounds)
        groups, ends = t.offsets, t.bounds[t.offsets]
    else:  # one joint, whose cached exact row sums serve again
        batch, groups, ends = joints[0], [0, len(joints[0])], [0, len(joints[0]._flat)]
    whole = span_entropies(family, batch._flat, spans_of(ends))
    margs = group_marginals(batch, groups)
    parts = zip(span_entropies(family, margs, spans_of(groups)),
                conditional_entropies(family, batch, groups, margs))
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
    t = _trials(lengths, lambda n: (uniform(2 ** n)._array, [2 ** n]))
    values = span_entropies(family, t.flat, spans_of(t.bounds))
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
    if not 1 <= _integer(n, "chain length") <= MAX_CHAIN_LENGTH:
        raise DimensionError(
            f"chain length must be in 1..{MAX_CHAIN_LENGTH}, got {n}"
        )
    return _chain(family, [n])[0][0]


def _trace(family, dims) -> tuple[list[float], list[float]]:
    t = _trials(dims, lambda n: (uniform(n)._array, [n]))
    values = span_entropies(family, t.flat, spans_of(t.bounds))
    residuals = [abs(v - uniform_trace(family, n)) for v, n in zip(values, dims)]
    return residuals, [abs(v) for v in values]


def uniform_trace_residual(family: EntropyFamily, n: int) -> float:
    """|entropy at U_n - closed-form uniform trace|."""
    return _trace(family, [n])[0][0]


def _refinement(family, counts_list) -> tuple[list[float], list[float]]:
    t = _trials(counts_list, lambda counts: (np.array(counts, dtype=np.intp), [len(counts)]))
    # the refinement joints end to end: joint t has one row of m_i cells of
    # 1/m per count m_i of trial t (its one row of the store), m their sum
    bounds = _starts(t.flat)
    groups = t.bounds[t.offsets]
    cells = spans_of(bounds[groups])
    sizes = cells[:, 1] - cells[:, 0]
    batch = JointDistribution._wrap(np.repeat(1.0 / sizes, sizes), bounds)
    margs = group_marginals(batch, groups)
    direct = span_entropies(family, margs, spans_of(groups))
    whole = span_entropies(family, batch._flat, cells)
    subtract = family.composition.subtract
    conditionals = conditional_entropies(family, batch, groups, margs)
    rebuilt = [subtract(w, c) for w, c in zip(whole, conditionals)]
    return [abs(d - r) for d, r in zip(direct, rebuilt)], [abs(d) for d in direct]


def refinement_consistency(family: EntropyFamily, counts: Iterable[int]) -> float:
    """Residual of reconstructing H(m_1/m, ..., m_n/m) from its refinement.

    The refinement joint has uniform conditional rows, so for a strongly
    additive family the marginal entropy must equal the joint entropy minus
    (deformed-minus for HCT) the conditional entropy.
    """
    return _refinement(family, [_check_counts(counts)])[0][0]


def _product(family, pairs) -> tuple[list[float], list[float]]:
    t = _trials(pairs, lambda pq: (np.concatenate([d._array for d in pq]), list(map(len, pq))))
    rows = spans_of(t.bounds)  # p and q of each trial
    p, q = rows[0::2], rows[1::2]
    # the outer products end to end: one row per entry of p, its pair's q
    lengths = p[:, 1] - p[:, 0]
    q_rows = np.repeat(q, lengths, axis=0)
    cells = np.repeat(span_cells(t.flat, p), q_rows[:, 1] - q_rows[:, 0])
    cells *= span_cells(t.flat, q_rows)
    whole = span_entropies(family, cells, spans_of(_starts(lengths * (q[:, 1] - q[:, 0]))))
    parts = span_entropies(family, t.flat, rows)
    add = family.composition.add
    residuals = [abs(w - add(a, b)) for w, a, b in zip(whole, parts[0::2], parts[1::2])]
    return residuals, [abs(w) for w in whole]


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
        for name in ("trials", "max_rows", "max_cols", "seed"):  # stored as Python ints
            object.__setattr__(self, name, _integer(getattr(self, name), name, ConfigError))
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
        """The fields in declaration order, the checks as a list of dicts."""
        return {**asdict(self), "checks": [asdict(c) for c in self.checks]}

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _normalized(cells: np.ndarray, totals, counts) -> np.ndarray:
    """Each trial's ``counts[t]`` cells over ``totals[t]``, then over their exact sum."""
    flat = cells / np.repeat(totals, counts)
    flat /= np.repeat(segment_sums(flat, _starts(counts)), counts)
    return flat


def _rows_clear(least_row, total):
    """Whether the least numpy row sum shows that every row over ``total`` sums to 1e-12 or
    more: 2x covers the rounding of row sums and division (rows below 2**50 cells)."""
    return least_row > 2e-12 * total


# Each draw below returns the cells of its trials end to end, their row
# lengths and the rows of each trial: the arguments of `_Trials`.  `_sampler`
# is imported on the first draw: a process that draws nothing never loads it.


def _draw_joints(rng, trials: int, max_rows: int, max_cols: int):
    """``trials`` joints, drawn one after another, normalized all at once.

    A candidate joint with a row whose marginal falls below 1e-12 is
    refused and the next candidate on the stream takes its place, so
    conditionals are always defined: the joints are the candidates that
    pass, in stream order.  The candidates are drawn ``trials`` at a time;
    those that their numpy row sums do not clear (`_rows_clear`) take the
    exact test, and as many more are drawn as failed it."""
    from . import _sampler
    draws, trial_rows, keep = _sampler.draws(rng), [], np.zeros(0, bool)
    while need := trials - np.count_nonzero(keep):
        for _ in range(need):
            trial_rows.append(draws.integer(2, max_rows))
            draws.exponential(draws.integers(1, max_cols, trial_rows[-1]))
        sizes, cells = draws.ints.used(), draws.cells.used()
        rows, starts = _sampler.row_sums(cells, sizes), _starts(trial_rows)[:-1]
        totals, counts = _sampler.sequential_sums(rows, trial_rows), np.add.reduceat(sizes, starts)
        clear = _rows_clear(np.minimum.reduceat(rows, starts), totals)
        keep = np.zeros(len(trial_rows), bool) | clear  # one verdict per candidate
        if not keep.all():
            doubt, doubt_rows = ~keep, np.repeat(~keep, trial_rows)
            scaled = cells[np.repeat(doubt_rows, sizes)] / np.repeat(totals[doubt], counts[doubt])
            exact = segment_sums(scaled, _starts(sizes[doubt_rows]))
            least = np.minimum.reduceat(exact, _starts(np.asarray(trial_rows)[doubt])[:-1])
            keep[doubt] = least >= 1e-12
    if not keep.all():  # drop the refused candidates
        kept_rows = np.repeat(keep, trial_rows)
        cells, sizes = cells[np.repeat(kept_rows, sizes)], sizes[kept_rows]
        totals, counts, trial_rows = totals[keep], counts[keep], np.asarray(trial_rows)[keep]
    return _normalized(cells, totals, counts), sizes, trial_rows


def _draw_distributions(rng, max_dims: Sequence[int]):
    """One distribution per entry of ``max_dims``, drawn one after another,
    normalized all at once: one trial of one row each."""
    from . import _sampler
    draws, dims = _sampler.draws(rng), []
    for max_dim in max_dims:
        dims.append(draws.integer(2, max(max_dim, 2)))
        draws.exponential(dims[-1])
    cells = draws.cells.used()
    return _normalized(cells, _sampler.row_sums(cells, dims), dims), dims, [1] * len(dims)


def _draw_counts(rng, trials: int, max_rows: int, max_cols: int):
    """``trials`` refinement block sizes, one trial of one row each."""
    from . import _sampler
    draws, lengths = _sampler.draws(rng), []
    for _ in range(trials):
        lengths.append(draws.integer(2, max_rows))
        draws.integers(1, max_cols, lengths[-1])
    return draws.ints.used(), lengths, [1] * trials


def _drawn(draw: Callable[[int], tuple], trials: int) -> tuple:
    """``draw(n)`` over chunks of up to ``_BATCH_TRIALS`` trials, end to end,
    so that only one chunk's own draws wait for their normalization."""
    chunks = [draw(min(_BATCH_TRIALS, trials - s)) for s in range(0, trials, _BATCH_TRIALS)]
    return tuple(map(np.concatenate, zip(*chunks)))


def _draw_suite(cfg: CheckConfig) -> tuple[_Trials, _Trials, _Trials]:
    """The suite's joints, product pairs and refinement counts, in that order."""
    rng = np.random.default_rng(cfg.seed)
    rows, cols = cfg.max_rows, cfg.max_cols
    joints = _Trials(*_drawn(lambda n: _draw_joints(rng, n, rows, cols), cfg.trials))
    cells, sizes, _ = _drawn(lambda n: _draw_distributions(rng, [rows, cols] * n), cfg.trials)
    counts = _Trials(*_drawn(lambda n: _draw_counts(rng, n, rows, cols), cfg.trials))
    return joints, _Trials(cells, sizes, [2] * cfg.trials), counts


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
            for t in range(len(batch)):  # one-trial slices of a store or a list
                _measure(name, check, family, batch[t:t + 1])
            raise failure
        for residual in batch_residuals:
            if not math.isfinite(residual):
                raise Overflow(f"{name} residual is not finite: {residual!r}")
        residuals += batch_residuals
        scales += batch_scales
    return residuals, scales


def _aggregate(name: str, residuals: Sequence[float], scales: Sequence[float], inputs,
               describe: Callable[[Any], Any], tolerance: float) -> CheckRecord:
    relatives = [r / (1.0 + s) for r, s in zip(residuals, scales)]
    worst = max(range(len(relatives)), key=relatives.__getitem__)  # the first maximum
    worst_rel = relatives[worst]
    max_abs = max(residuals)
    verdict = ("pass" if worst_rel <= tolerance
               else "violation detected" if max_abs >= VIOLATION_THRESHOLD else "fail")
    return CheckRecord(
        name=name,
        max_residual=max_abs,
        mean_residual=math.fsum(residuals) / len(residuals),
        max_relative_residual=worst_rel,
        mean_relative_residual=math.fsum(relatives) / len(relatives),
        worst_input=describe(inputs[worst:worst + 1]),
        verdict=verdict,
    )


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
    joints, pairs, counts = _draw_suite(cfg)
    checks = [
        ("strong_additivity", _strong_additivity, joints, lambda t: {"rows": t.rows()}),
        ("counterexample_probe", _strong_additivity, [PROBE_JOINT],
         lambda js: {"rows": [list(r) for r in js[0].rows]}),
        ("product_additivity", _product, pairs, lambda t: dict(zip("pq", t.rows()))),
        ("refinement_consistency", _refinement, counts, lambda t: {"counts": t.rows()[0]}),
        ("chain", _chain, list(range(1, 13)), lambda n: {"n": n[0]}),
        ("uniform_trace", _trace, [2 ** k for k in range(1, 15)], lambda n: {"n": n[0]}),
    ]
    records = [
        _aggregate(name, *_measure(name, check, family, inputs), inputs, describe, cfg.tolerance)
        for name, check, inputs, describe in checks
    ]
    records.sort(key=lambda r: r.name)
    verdicts = {r.verdict for r in records}
    overall = ("pass" if verdicts == {"pass"}
               else "violation detected" if "violation detected" in verdicts else "fail")
    return CheckReport(
        family=family_name(family),
        params=family_params(family),
        seed=cfg.seed,
        prng=PRNG_NAME,
        checks=tuple(records),
        verdict=overall,
    )
