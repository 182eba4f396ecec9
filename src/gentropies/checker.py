"""Numerical verification harness for the strong-additivity axiom systems.

Each residual operation measures one identity these entropy families are
characterized by: strong additivity on arbitrary ragged joints, additivity
on direct products and on the n-fold fair-coin chain, the closed-form
uniform trace, and the reconstruction of a rational distribution's entropy
from its even refinement.  `run_suite` draws seeded random inputs, runs
every check plus the fixed counterexample probe, and aggregates residuals
into a reproducible report: the same configuration always serializes to
identical bytes.  It evaluates a batch of trials of every check at once: one
``span_entropies`` call for the drawn runs and the joints' rows that they need,
one for the uniforms, and the residuals as float64 arrays, which become Python
floats only in the report's records; its docstring states which error a failing
check raises.  It draws each store whole from the seed's PCG64 stream, one
Generator call per quantity (draw order 2, which the reports name in ``prng``;
see `_draw_joints`), and divides each trial by its exact sum.  Every check but
the chain and the trace reads such a store; a public function, one of one trial.

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

from ._stable import bounds_of, divide_runs, exact_sum, gather, segment_sums
from .distributions import (
    Distribution,
    JointDistribution,
    _check_counts,
    _require,
    group_marginals,
    uniform,
)
from .entropies import (
    EntropyFamily,
    conditional_means,
    conditional_rows,
    family_name,
    family_params,
    span_entropies,
)
from .errors import ConfigError, DimensionError, EscortUndefined, Overflow, _integer

#: absolute residual at which a must-fail check counts as a detected violation.
VIOLATION_THRESHOLD = 1e-3

#: The fixed probe joint ((1/2, 0), (1/4, 1/4)): marginal (1/2, 1/2) with
#: conditionals (1, 0) and (1/2, 1/2), the pair that forces the escort
#: exponent to 1 in the uniqueness proofs.
PROBE_JOINT = JointDistribution(((0.5, 0.0), (0.25, 0.25)))

PRNG_NAME = "numpy.random.PCG64, draw order 2"

#: Longest fair-coin chain `chain_residual` checks: each call builds the
#: chain's 2**n float64 cells (32 MiB at n = 22).
MAX_CHAIN_LENGTH = 22

#: Largest ``trials * max(max_rows * max_cols, MIN_TRIAL_CELLS)`` that
#: `run_suite` accepts.  The suite draws every trial before checking any,
#: into one CSR store per check: 8 bytes per drawn cell (the joints take a
#: quarter of the bound on average, 32 MiB at the bound) and per row and
#: trial bound.  Each store is drawn whole and normalized in place, its exact
#: sums taken in one call: drawing the three stores peaks at about 0.21 and
#: 0.43 KB per trial at 2 x 1 and 8 x 8 (tracemalloc, 20,000 trials).
MAX_SUITE_CELLS = 2 ** 24

#: Least charge per trial against ``MAX_SUITE_CELLS`` (the default 8 x 8
#: shape), for what every trial holds whatever its shape: the stores take
#: 0.13-0.39 KB per trial from 2 x 1 to 8 x 8, and the residuals and their
#: scales 48 bytes of float64 more (tracemalloc).
MIN_TRIAL_CELLS = 64

#: Trials per batch of a check in `_measure`: this bounds the arrays that one
#: batch of the checks allocates, whatever the number of trials.
_BATCH_TRIALS = 1024


class _Trials:
    """Trials in one CSR store: ``flat`` cut into rows at ``bounds``, row k being
    ``flat[bounds[k]:bounds[k + 1]]`` (of exact sum ``sums[k]`` where the store keeps the
    sums), and the rows into trials at ``offsets``, trial t being rows ``offsets[t]`` to
    ``offsets[t + 1] - 1``.  A check reads a batch of trials as arrays, without an object
    per trial; slicing gives a run of trials as a store over a view of the same cells."""

    __slots__ = ("flat", "bounds", "offsets", "sums")

    def __init__(self, flat: np.ndarray, bounds: np.ndarray, offsets: np.ndarray, sums=None):
        self.flat, self.bounds, self.offsets, self.sums = flat, bounds, offsets, sums

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, trials: slice) -> _Trials:
        start, stop, _ = trials.indices(len(self))
        rows = self.offsets[start:stop + 1]
        bounds = self.bounds[rows[0]:rows[-1] + 1]
        sums = None if self.sums is None else self.sums[rows[0]:rows[-1]]
        return _Trials(self.flat[bounds[0]:bounds[-1]], bounds - bounds[0], rows - rows[0], sums)

    def rows(self) -> list[list]:
        """Every row, as a list."""
        return [self.flat[i:j].tolist() for i, j in itertools.pairwise(self.bounds.tolist())]


def _joined(pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """The cells of every ``(cells, lengths)`` piece end to end, and the bounds of their runs."""
    cells, lengths = zip(*pieces)
    flat = cells[0] if len(cells) == 1 else np.concatenate(cells)
    return flat, bounds_of(np.concatenate(lengths))


def _one(cells: np.ndarray, lengths: Sequence[int]) -> _Trials:
    """One trial: ``cells`` cut into rows of ``lengths``."""
    return _Trials(cells, bounds_of(lengths), np.array([0, len(lengths)]))


def _joint(joint: JointDistribution) -> _Trials:
    """One trial: ``joint``'s own cells, bounds and exact row sums, cached on it."""
    return _Trials(joint._flat, joint._bounds, np.array([0, len(joint)]), joint._row_sums())


# Each check below is a generator over a batch of inputs.  It yields
# ``(runs, joint, dims)``: ``(cells, lengths)`` pieces whose runs need an
# entropy, ``(joint, groups)`` or None, each group of rows one joint, and the
# dimensions of uniforms.  It is sent float64 arrays: the entropies of each
# piece's runs, the whole, marginal and conditional entropies of the joints
# and the uniforms', and returns float64 arrays: the residual of every input
# and the magnitude of its reference value.  `_evaluate` runs any list of
# checks at once; `run_suite` measures its checks through it (`_measure`), and
# the public functions are its one-trial case (`_residual` of `_one` or `_joint`).


@np.errstate(all="ignore")  # the checks' arithmetic too: the caller's error state changes no result
def _evaluate(family, steps: Sequence) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every check's result, from one `span_entropies` call for the drawn runs, then the joints'
    wholes, marginals and conditional rows (from the row sums that they carry), and one for the
    uniforms (exact terms: fewer extraction levels): each run gets the bits it would alone."""
    asks = [next(s) for s in steps]
    pieces = [piece for runs, _, _ in asks for piece in runs]
    joints = [joint for _, joint, _ in asks if joint is not None]
    if len(joints) > 1:  # every joint's rows and exact row sums end to end, one group per joint
        batch = JointDistribution._wrap(
            *_joined([(joint._flat, np.diff(joint._bounds)) for joint, _ in joints]),
            np.concatenate([joint._row_sums() for joint, _ in joints]))
        joints = [(batch, bounds_of(np.concatenate([np.diff(groups) for _, groups in joints])))]
    if joints:  # the wholes, the marginals, then the conditional rows
        batch, groups = joints[0]
        margs = group_marginals(batch, groups)
        pieces += [(batch._flat, np.diff(batch._bounds[groups])), (margs, np.diff(groups))]
        try:
            cells, bounds, weights, starts = conditional_rows(family, batch, groups, margs)
        except EscortUndefined:  # the runs before the rows raise first if they fail alone
            span_entropies(family, *_joined(pieces))
            raise
        pieces.append((cells, np.diff(bounds)))
    values = span_entropies(family, *_joined(pieces)) if pieces else None
    ends = itertools.accumulate(len(lengths) for _, lengths in pieces)
    parts = iter([values[i:j] for i, j in itertools.pairwise([0, *ends])])
    own = [[next(parts) for _ in runs] for runs, _, _ in asks]
    triple = ()  # the wholes, marginals and conditionals of the joints
    if joints:
        triple = (next(parts), next(parts), conditional_means(family, weights, next(parts), starts))
    dims = list(dict.fromkeys(n for _, _, ns in asks for n in ns))
    uniforms = np.zeros(0)
    # after the runs' call, which so finds the drawn cells in cache; one uniform is
    # `uniform`'s own, which checks its dimension
    if dims:
        cells = np.repeat(1.0 / np.array(dims), dims) if len(dims) > 1 else uniform(dims[0])._array
        uniforms = span_entropies(family, cells, bounds_of(dims))
    index, at = {n: k for k, n in enumerate(dims)}, 0
    results = []
    for step, mine, (_, joint, ns) in zip(steps, own, asks):
        n = 0 if joint is None else len(joint[1]) - 1
        try:
            step.send((mine, [x[at:at + n] for x in triple], uniforms.take([index[d] for d in ns])))
        except StopIteration as done:
            results.append(done.value)
        at += n
    return results


def _residual(check, family, inputs) -> float:
    """The residual of ``check`` on the one input in ``inputs``: a one-trial store or ``[n]``."""
    return _evaluate(family, [check(family, inputs)])[0][0].item()


def _strong_additivity(family, t):
    joint = JointDistribution._wrap(t.flat, t.bounds, t.sums)  # the sums, if the store has them
    _, (whole, marg, cond), _ = yield [], (joint, t.offsets), []
    return np.abs(whole - family.composition.add(marg, cond)), np.abs(whole)


def strong_additivity_residual(family: EntropyFamily, joint: JointDistribution) -> float:
    """|H(joint) - H(marginal) (+) H(conditional)| with the family's composition."""
    _require(joint, JointDistribution)
    return _residual(_strong_additivity, family, _joint(joint))


def counterexample_probe(family: EntropyFamily) -> float:
    """Strong-additivity residual on the fixed probe joint.

    Vanishes (to rounding) exactly for the strongly additive members; stays
    above ~1e-1 for escort exponents beta != 1.
    """
    return _residual(_strong_additivity, family, _joint(PROBE_JOINT))


def _chain(family, lengths):
    # every product of powers of two is exact, so U_2^{(x)n} is U_{2**n} bit for bit
    _, _, values = yield [], None, [2 ** n for n in lengths] + [2]
    d, chain = family.composition, values[:-1]
    return np.abs(chain - d.h(np.multiply(lengths, d.h_inv(values[-1])))), np.abs(chain)


def chain_residual(family: EntropyFamily, n: int) -> float:
    """Additivity defect of the n-fold direct power of the fair coin.

    Additive families are checked against n * H(U_2); HCT families against
    h(n * h_inv(T(U_2))) with the family's deformation.  The chain is
    U_{2**n}, which the products of powers of two reproduce exactly; it has
    2**n cells, so n is capped at ``MAX_CHAIN_LENGTH`` and longer chains
    raise :class:`DimensionError` before anything is built.
    """
    if not 1 <= (n := _integer(n, "chain length")) <= MAX_CHAIN_LENGTH:
        raise DimensionError(
            f"chain length must be in 1..{MAX_CHAIN_LENGTH}, got {n}"
        )
    return _residual(_chain, family, [n])


def _trace(family, dims):
    _, _, values = yield [], None, dims
    traces = np.array([family._trace(n, math.log2(n)) + 0.0 for n in dims])
    return np.abs(values - traces), np.abs(values)


def uniform_trace_residual(family: EntropyFamily, n: int) -> float:
    """|entropy at U_n - closed-form uniform trace|; n over 2**``MAX_CHAIN_LENGTH``
    raises :class:`DimensionError` before anything is built."""
    if (n := _integer(n, "uniform dimension")) > 2 ** MAX_CHAIN_LENGTH:
        raise DimensionError(f"uniform dimension must be at most 2**{MAX_CHAIN_LENGTH}, got {n}")
    return _residual(_trace, family, [n])


def _refinement(family, t):
    # the refinement joints end to end: joint t has one row of m_i cells of
    # 1/m per count m_i of trial t (its one row of the store), m their sum
    bounds = bounds_of(t.flat)
    groups = t.bounds[t.offsets]
    sizes = np.diff(bounds[groups])
    # row i sums exactly to m_i * (1/m), which one multiply rounds once, as fsum does
    joint = JointDistribution._wrap(np.repeat(1.0 / sizes, sizes), bounds,
                                    t.flat * np.repeat(1.0 / sizes, np.diff(groups)))
    _, (whole, marg, cond), _ = yield [], (joint, groups), []
    return np.abs(marg - family.composition.subtract(whole, cond)), np.abs(marg)


def refinement_consistency(family: EntropyFamily, counts: Iterable[int]) -> float:
    """Residual of reconstructing H(m_1/m, ..., m_n/m) from its refinement.

    The refinement joint has uniform conditional rows, so for a strongly
    additive family the marginal entropy must equal the joint entropy minus
    (deformed-minus for HCT) the conditional entropy.  Its m cells are
    capped at 2**``MAX_CHAIN_LENGTH``, as `chain_residual` caps its own.
    """
    counts = _check_counts(counts)
    if (m := sum(map(int, counts))) > 2 ** MAX_CHAIN_LENGTH:
        raise DimensionError(f"refinement must have at most 2**{MAX_CHAIN_LENGTH} cells, got {m}")
    return _residual(_refinement, family, _one(np.array(counts, dtype=np.intp), [len(counts)]))


def _product(family, t):
    sizes = np.diff(t.bounds)  # p and q of trial t are its runs 2t and 2t + 1
    # the outer products end to end: one row per entry of p, its pair's q
    q_rows = np.repeat(np.arange(1, len(sizes), 2), sizes[0::2])
    cells = np.repeat(gather(t.flat, t.bounds, np.arange(0, len(sizes), 2))[0], sizes[q_rows])
    cells *= gather(t.flat, t.bounds, q_rows)[0]  # `_evaluate` ignores its underflows
    (whole, parts), _, _ = yield [(cells, sizes[0::2] * sizes[1::2]), (t.flat, sizes)], None, []
    return np.abs(whole - family.composition.add(parts[0::2], parts[1::2])), np.abs(whole)


def product_additivity_residual(
    family: EntropyFamily, p: Distribution, q: Distribution
) -> float:
    """Additivity defect on the direct product of two distributions."""
    _require(p, Distribution)
    _require(q, Distribution)
    return _residual(_product, family, _one(np.concatenate([p._array, q._array]), [len(p), len(q)]))


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


def _normalized(cells: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``cells``, each run between ``bounds`` divided in place by its exact sum."""
    return divide_runs(cells, segment_sums(cells, bounds), bounds, out=cells)


# Draw order 2 (`PRNG_NAME`): each store below is drawn whole, one Generator call per
# quantity in the order that its docstring states, and returned as a `_Trials`.


def _draw_joints(rng, trials: int, max_rows: int, max_cols: int) -> _Trials:
    """``trials`` joints, each divided by its exact sum.

    Candidates are drawn k at a time (``trials`` at first) in three calls: every
    candidate's row count, ``rng.integers(2, max_rows + 1, size=k)``; then all their
    row lengths, ``rng.integers(1, max_cols + 1, size=r)``, r the sum of the counts;
    then all their cells, ``rng.exponential(1.0, size=n)``, n the sum of the lengths.
    A normalized candidate with a row whose exact sum falls below 1e-12 is refused, so that
    conditionals are always defined, and as many candidates as were refused are drawn again
    the same way: the joints are the candidates kept, in stream order, with their row sums."""
    parts = []  # per round, the (cells, row lengths, row counts, row sums) of the candidates kept
    while need := trials - sum(len(rows) for _, _, rows, _ in parts):
        rows = rng.integers(2, max_rows + 1, size=need)
        lengths = rng.integers(1, max_cols + 1, size=int(rows.sum()))
        bounds, offsets = bounds_of(lengths), bounds_of(rows)
        ends = bounds[offsets]
        cells = _normalized(rng.exponential(1.0, size=int(bounds[-1])), ends)
        keep = np.minimum.reduceat(sums := segment_sums(cells, bounds), offsets[:-1]) >= 1e-12
        if not parts and keep.all():
            return _Trials(cells, bounds, offsets, sums)
        kept = np.flatnonzero(keep)
        parts.append((gather(cells, ends, kept)[0], gather(lengths, offsets, kept)[0], rows[kept],
                      gather(sums, offsets, kept)[0]))
    cells, lengths, rows, sums = map(np.concatenate, zip(*parts))
    return _Trials(cells, bounds_of(lengths), bounds_of(rows), sums)


def _draw_distributions(rng, trials: int, max_rows: int, max_cols: int) -> _Trials:
    """``trials`` pairs of distributions p and q (trial t is the rows p and q), each
    divided by its exact sum: their dimensions, ``rng.integers(2, highs, size=(trials,
    2))`` with ``highs = np.maximum([max_rows, max_cols], 2) + 1`` (p's high, then q's),
    then all their cells, ``rng.exponential(1.0, size=n)``, n the sum of the dimensions."""
    dims = rng.integers(2, np.maximum([max_rows, max_cols], 2) + 1, size=(trials, 2)).ravel()
    bounds = bounds_of(dims)
    cells = _normalized(rng.exponential(1.0, size=int(bounds[-1])), bounds)
    return _Trials(cells, bounds, np.arange(0, 2 * trials + 1, 2))


def _draw_counts(rng, trials: int, max_rows: int, max_cols: int) -> _Trials:
    """``trials`` refinements' block sizes, one row each: their numbers of blocks,
    ``rng.integers(2, max_rows + 1, size=trials)``, then all their sizes,
    ``rng.integers(1, max_cols + 1, size=r)``, r the sum of the numbers."""
    rows = rng.integers(2, max_rows + 1, size=trials)
    return _Trials(rng.integers(1, max_cols + 1, size=int(rows.sum())), bounds_of(rows),
                   np.arange(trials + 1))


def _draw_suite(cfg: CheckConfig) -> tuple[_Trials, _Trials, _Trials]:
    """The suite's joints, product pairs and refinement counts, in that order."""
    rng = np.random.default_rng(cfg.seed)
    shape = cfg.trials, cfg.max_rows, cfg.max_cols
    return _draw_joints(rng, *shape), _draw_distributions(rng, *shape), _draw_counts(rng, *shape)


def _measure(family, checks: Sequence[tuple]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The residuals and scales of every ``(name, check, inputs, describe)``:
    the one measuring loop of `run_suite`, whose docstring states what it raises."""
    measured = [([], []) for _ in checks]
    for start in range(0, max(len(inputs) for _, _, inputs, _ in checks), _BATCH_TRIALS):
        batch = [(out, name, check, inputs[start:start + _BATCH_TRIALS])
                 for out, (name, check, inputs, _) in zip(measured, checks) if start < len(inputs)]
        try:
            results = _evaluate(family, [check(family, inputs) for _, _, check, inputs in batch])
        except Exception:  # noqa: BLE001 - a single check's batch is replayed, then re-raised
            (_, name, check, inputs), *others = batch
            if not others and len(inputs) > 1:
                for t in range(len(inputs)):  # one-input slices of a store or a list
                    _measure(family, [(name, check, inputs[t:t + 1], None)])
            raise
        for ((residuals, scales), name, _, _), (more, their) in zip(batch, results):
            if len(bad := np.flatnonzero(~np.isfinite(more))):
                raise Overflow(f"{name} residual is not finite: {float(more[bad[0]])!r}")
            residuals.append(more)
            scales.append(their)
    return [(np.concatenate(residuals), np.concatenate(scales)) for residuals, scales in measured]


def _aggregate(name: str, residuals: np.ndarray, scales: np.ndarray, inputs,
               describe: Callable[[Any], Any], tolerance: float) -> CheckRecord:
    relatives = residuals / (1.0 + scales)
    worst = int(relatives.argmax())  # the first maximum
    worst_rel = float(relatives[worst])
    max_abs = float(residuals.max())
    verdict = ("pass" if worst_rel <= tolerance
               else "violation detected" if max_abs >= VIOLATION_THRESHOLD else "fail")
    return CheckRecord(
        name=name,
        max_residual=max_abs,
        mean_residual=exact_sum(residuals) / len(residuals),
        max_relative_residual=worst_rel,
        mean_relative_residual=exact_sum(relatives) / len(relatives),
        worst_input=describe(inputs[worst:worst + 1]),
        verdict=verdict,
    )


def run_suite(cfg: CheckConfig) -> CheckReport:
    """Run every residual check plus the fixed probe under one seed.

    Inputs are drawn from a PCG64 generator in a fixed order (ragged
    joints, then product pairs, then refinement counts), so identical
    configurations produce byte-identical reports.  Aggregation uses max and
    arithmetic mean only and is therefore order-independent.  Every trial is
    held in memory, so a configuration over the ``MAX_SUITE_CELLS`` budget
    raises :class:`ConfigError` before anything is drawn.

    One loop (`_measure`) measures the checks, and this is what it raises:

    1. It takes batches of up to ``_BATCH_TRIALS`` trials, each batch of every
       check (the probe, chain and trace with the first) in one pass through
       the kernels (`_evaluate`), with the public functions' arithmetic.
    2. If that run raises, the loop runs again once per check, in order, so
       that an error, or the :class:`Overflow` of a non-finite residual,
       names the first check that meets it.
    3. A one-check batch that raises is replayed one trial at a time: the
       error is the first that a trial-by-trial run meets, or the batch's own
       if no trial fails alone.
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
        ("counterexample_probe", _strong_additivity, _joint(PROBE_JOINT),
         lambda t: {"rows": t.rows()}),
        ("product_additivity", _product, pairs, lambda t: dict(zip("pq", t.rows()))),
        ("refinement_consistency", _refinement, counts, lambda t: {"counts": t.rows()[0]}),
        ("chain", _chain, list(range(1, 13)), lambda n: {"n": n[0]}),
        ("uniform_trace", _trace, [2 ** k for k in range(1, 15)], lambda n: {"n": n[0]}),
    ]
    try:
        measured = _measure(family, checks)
    except Exception:  # noqa: BLE001 - the check-by-check run raises the first failure
        measured = [_measure(family, [check])[0] for check in checks]
    records = [
        _aggregate(name, residuals, scales, inputs, describe, cfg.tolerance)
        for (residuals, scales), (name, _, inputs, describe) in zip(measured, checks)
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
