"""Numerical verification harness for the strong-additivity axiom systems.

Each residual operation measures one identity these entropy families are
characterized by: strong additivity on arbitrary ragged joints, additivity
on direct products and on the n-fold fair-coin chain, the closed-form
uniform trace, and the reconstruction of a rational distribution's entropy
from its even refinement.  `run_suite` draws seeded random inputs, runs
every check plus the fixed counterexample probe, and aggregates residuals
into a reproducible report: the same configuration always serializes to
identical bytes.  It evaluates a batch of trials of every check at once:
one ``span_entropies`` call for all the entropies that they need, one
``conditional_entropies`` call for all their joints; its docstring states
which error a failing check raises.  It draws each store in one sampler
loop (``_sampler.Draws.trials``) per chunk of trials, through numpy's
exported C samplers on the seed's PCG64 stream, or where they are missing
or differ (``_sampler.c_samplers()`` is None) through the Generator methods:
the same numbers either way.

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

from ._stable import bounds_of, gather, segment_sums
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
    conditional_entropies,
    family_name,
    family_params,
    span_entropies,
    uniform_trace,
)
from .errors import ConfigError, DimensionError, Overflow, _integer

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


class _Trials:
    """Trials in one CSR store: ``flat`` cut into rows at ``bounds``, row k
    being ``flat[bounds[k]:bounds[k + 1]]``, and the rows into trials at
    ``offsets``, trial t being rows ``offsets[t]`` to ``offsets[t + 1] - 1``.
    A check reads a batch of trials as arrays, without an object per trial;
    slicing gives a run of trials as a store over a view of the same cells."""

    __slots__ = ("flat", "bounds", "offsets")

    def __init__(self, flat: np.ndarray, bounds: np.ndarray, offsets: np.ndarray) -> None:
        self.flat, self.bounds, self.offsets = flat, bounds, offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, trials: slice) -> _Trials:
        start, stop, _ = trials.indices(len(self))
        rows = self.offsets[start:stop + 1]
        bounds = self.bounds[rows[0]:rows[-1] + 1]
        return _Trials(self.flat[bounds[0]:bounds[-1]], bounds - bounds[0], rows - rows[0])

    def rows(self) -> list[list]:
        """Every row, as a list."""
        return [self.flat[i:j].tolist() for i, j in itertools.pairwise(self.bounds.tolist())]


def _joined(pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """The cells of every ``(cells, lengths)`` piece end to end, and the bounds of their runs."""
    cells, lengths = zip(*pieces)
    flat = cells[0] if len(cells) == 1 else np.concatenate(cells)
    return flat, bounds_of(np.concatenate(lengths))


def _trials(inputs, parts: Callable[[Any], tuple[np.ndarray, Sequence[int]]]) -> _Trials:
    """``inputs`` as a store: a store as it is, else one trial per x of ``parts(x)``."""
    if isinstance(inputs, _Trials):
        return inputs
    pieces = list(map(parts, inputs))
    return _Trials(*_joined(pieces), bounds_of([len(lengths) for _, lengths in pieces]))


# Each check below is a generator over a batch of inputs.  It yields
# ``(runs, joint, dims)``: ``(cells, lengths)`` pieces whose runs need an
# entropy, ``(joint, groups)`` or None, each group of rows one joint, and the
# dimensions of uniforms.  It is sent the entropies of each piece's runs, the
# (whole, marginal, conditional) entropies of each joint and the uniforms',
# and returns the residual of every input and the magnitude of its reference
# value.  `_evaluate` runs any list of checks at once; `run_suite` measures
# its checks through it (`_measure`), and the public functions are its
# one-input case (`_residual`).


def _evaluate(family, steps: Sequence) -> list[tuple[list[float], list[float]]]:
    """Every check's result, from one `span_entropies`, one `group_marginals` and one
    `conditional_entropies` call for all of them: each run gets the bits it would alone."""
    asks = [next(s) for s in steps]
    pieces = [piece for runs, _, _ in asks for piece in runs]
    joints = [joint for _, joint, _ in asks if joint is not None]
    if len(joints) > 1:  # every joint's rows end to end, one group per joint
        rows = _joined([(joint._flat, np.diff(joint._bounds)) for joint, _ in joints])
        lengths = np.concatenate([np.diff(groups) for _, groups in joints])
        joints = [(JointDistribution._wrap(*rows), bounds_of(lengths))]
    if joints:  # the wholes, then the marginals
        batch, groups = joints[0]
        margs = group_marginals(batch, groups)
        pieces += [(batch._flat, np.diff(batch._bounds[groups])),
                   (margs, np.diff(groups))]
    dims = list(dict.fromkeys(n for _, _, ns in asks for n in ns))
    if dims:  # one uniform is `uniform`'s own, which checks its dimension
        cells = np.repeat(1.0 / np.array(dims), dims) if len(dims) > 1 else uniform(dims[0])._array
        pieces.append((cells, dims))
    values = iter(span_entropies(family, *_joined(pieces)))
    own = [[list(itertools.islice(values, len(lengths))) for _, lengths in runs]
           for runs, _, _ in asks]
    triples = iter(())
    if joints:
        k = len(groups) - 1
        wholes, marginals = list(itertools.islice(values, k)), list(itertools.islice(values, k))
        triples = zip(wholes, marginals, conditional_entropies(family, batch, groups, margs))
    uniforms = dict(zip(dims, values))
    results = []
    for step, mine, (_, joint, ns) in zip(steps, own, asks):
        n = 0 if joint is None else len(joint[1]) - 1
        try:
            step.send((mine, list(itertools.islice(triples, n)), [uniforms[d] for d in ns]))
        except StopIteration as done:
            results.append(done.value)
    return results


def _residual(check, family, x) -> float:
    """The residual of ``check`` on the one input ``x``."""
    return _evaluate(family, [check(family, [x])])[0][0][0]


def _strong_additivity(family, joints):
    if isinstance(joints, _Trials) or len(joints) != 1:
        t = _trials(joints, lambda joint: (joint._flat, np.diff(joint._bounds)))
        joint, groups = JointDistribution._wrap(t.flat, t.bounds), t.offsets
    else:  # one joint, whose cached exact row sums serve again
        joint, groups = joints[0], [0, len(joints[0])]
    _, parts, _ = yield [], (joint, groups), []
    add = family.composition.add
    return [abs(w - add(m, c)) for w, m, c in parts], [abs(w) for w, _, _ in parts]


def strong_additivity_residual(family: EntropyFamily, joint: JointDistribution) -> float:
    """|H(joint) - H(marginal) (+) H(conditional)| with the family's composition."""
    _require(joint, JointDistribution)
    return _residual(_strong_additivity, family, joint)


def counterexample_probe(family: EntropyFamily) -> float:
    """Strong-additivity residual on the fixed probe joint.

    Vanishes (to rounding) exactly for the strongly additive members; stays
    above ~1e-1 for escort exponents beta != 1.
    """
    return _residual(_strong_additivity, family, PROBE_JOINT)


def _chain(family, lengths):
    # every product of powers of two is exact, so U_2^{(x)n} is U_{2**n} bit for bit
    _, _, values = yield [], None, [2 ** n for n in lengths] + [2]
    d = family.composition
    coin = d.h_inv(values.pop())
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
    return _residual(_chain, family, n)


def _trace(family, dims):
    _, _, values = yield [], None, dims
    residuals = [abs(v - uniform_trace(family, n)) for v, n in zip(values, dims)]
    return residuals, [abs(v) for v in values]


def uniform_trace_residual(family: EntropyFamily, n: int) -> float:
    """|entropy at U_n - closed-form uniform trace|; n over 2**``MAX_CHAIN_LENGTH``
    raises :class:`DimensionError` before anything is built."""
    if _integer(n, "uniform dimension") > 2 ** MAX_CHAIN_LENGTH:
        raise DimensionError(f"uniform dimension must be at most 2**{MAX_CHAIN_LENGTH}, got {n}")
    return _residual(_trace, family, n)


def _refinement(family, counts_list):
    t = _trials(counts_list, lambda counts: (np.array(counts, dtype=np.intp), [len(counts)]))
    # the refinement joints end to end: joint t has one row of m_i cells of
    # 1/m per count m_i of trial t (its one row of the store), m their sum
    bounds = bounds_of(t.flat)
    groups = t.bounds[t.offsets]
    sizes = np.diff(bounds[groups])
    joint = JointDistribution._wrap(np.repeat(1.0 / sizes, sizes), bounds)
    _, parts, _ = yield [], (joint, groups), []
    subtract = family.composition.subtract
    return [abs(d - subtract(w, c)) for w, d, c in parts], [abs(d) for _, d, _ in parts]


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
    return _residual(_refinement, family, counts)


def _product(family, pairs):
    t = _trials(pairs, lambda pq: (np.concatenate([d._array for d in pq]), list(map(len, pq))))
    sizes = np.diff(t.bounds)  # p and q of trial t are its runs 2t and 2t + 1
    # the outer products end to end: one row per entry of p, its pair's q
    q_rows = np.repeat(np.arange(1, len(sizes), 2), sizes[0::2])
    cells = np.repeat(gather(t.flat, t.bounds, np.arange(0, len(sizes), 2))[0], sizes[q_rows])
    cells *= gather(t.flat, t.bounds, q_rows)[0]
    (whole, parts), _, _ = yield [(cells, sizes[0::2] * sizes[1::2]), (t.flat, sizes)], None, []
    add = family.composition.add
    residuals = [abs(w - add(a, b)) for w, a, b in zip(whole, parts[0::2], parts[1::2])]
    return residuals, [abs(w) for w in whole]


def product_additivity_residual(
    family: EntropyFamily, p: Distribution, q: Distribution
) -> float:
    """Additivity defect on the direct product of two distributions."""
    _require(p, Distribution)
    _require(q, Distribution)
    return _residual(_product, family, (p, q))


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
    flat /= np.repeat(segment_sums(flat, bounds_of(counts)), counts)
    return flat


def _rows_clear(least_row, total):
    """Whether the least numpy row sum shows that every row over ``total`` sums to 1e-12 or
    more: 2x covers the rounding of row sums and division (rows below 2**50 cells)."""
    return least_row > 2e-12 * total


# Each draw below draws its trials in one `_sampler.Draws.trials` loop (and one
# more per round of redrawn joints) and returns their cells end to end, their
# row lengths and the rows of each trial: the arguments of `_Trials`.  `_sampler`
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
    draws, keep = _sampler.draws(rng), np.zeros(0, bool)
    while need := trials - np.count_nonzero(keep):
        draws.trials([max_rows] * need, max_cols)
        trial_rows = draws.rows
        sizes, cells = draws.ints.used(), draws.cells.used()
        rows, starts = _sampler.row_sums(cells, sizes), bounds_of(trial_rows)[:-1]
        totals, counts = _sampler.sequential_sums(rows, trial_rows), np.add.reduceat(sizes, starts)
        clear = _rows_clear(np.minimum.reduceat(rows, starts), totals)
        keep = np.zeros(len(trial_rows), bool) | clear  # one verdict per candidate
        if not keep.all():
            doubt, doubt_rows = ~keep, np.repeat(~keep, trial_rows)
            scaled = cells[np.repeat(doubt_rows, sizes)] / np.repeat(totals[doubt], counts[doubt])
            exact = segment_sums(scaled, bounds_of(sizes[doubt_rows]))
            least = np.minimum.reduceat(exact, bounds_of(np.asarray(trial_rows)[doubt])[:-1])
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
    draws = _sampler.draws(rng)
    draws.trials([max(max_dim, 2) for max_dim in max_dims])
    cells, dims = draws.cells.used(), draws.rows
    return _normalized(cells, _sampler.row_sums(cells, dims), dims), dims, [1] * len(dims)


def _draw_counts(rng, trials: int, max_rows: int, max_cols: int):
    """``trials`` refinement block sizes, one trial of one row each."""
    from . import _sampler
    draws = _sampler.draws(rng)
    draws.trials([max_rows] * trials, max_cols, cells=False)
    return draws.ints.used(), draws.rows, [1] * trials


def _drawn(draw: Callable[[int], tuple], trials: int) -> _Trials:
    """The store of ``draw(n)`` over chunks of up to ``_BATCH_TRIALS`` trials, end
    to end, so that only one chunk's own draws wait for their normalization."""
    chunks = [draw(min(_BATCH_TRIALS, trials - s)) for s in range(0, trials, _BATCH_TRIALS)]
    flat, lengths, trial_rows = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
    return _Trials(flat, bounds_of(lengths), bounds_of(trial_rows))


def _draw_suite(cfg: CheckConfig) -> tuple[_Trials, _Trials, _Trials]:
    """The suite's joints, product pairs and refinement counts, in that order."""
    rng = np.random.default_rng(cfg.seed)
    rows, cols = cfg.max_rows, cfg.max_cols
    joints = _drawn(lambda n: _draw_joints(rng, n, rows, cols), cfg.trials)
    dists = _drawn(lambda n: _draw_distributions(rng, [rows, cols] * n), cfg.trials)
    counts = _drawn(lambda n: _draw_counts(rng, n, rows, cols), cfg.trials)
    return joints, _Trials(dists.flat, dists.bounds, bounds_of([2] * cfg.trials)), counts


def _measure(family, checks: Sequence[tuple]) -> list[tuple[list[float], list[float]]]:
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
            if (bad := next(itertools.filterfalse(math.isfinite, more), None)) is not None:
                raise Overflow(f"{name} residual is not finite: {bad!r}")
            residuals += more
            scales += their
    return measured


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
        ("counterexample_probe", _strong_additivity, [PROBE_JOINT],
         lambda js: {"rows": [list(r) for r in js[0].rows]}),
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
