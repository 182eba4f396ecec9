"""The suite's draws as objects, one per trial: `run_suite` reads the
stores of `checker._draw_suite`; the tests compare trials one by one.  And
`reference_joints`, `reference_distributions` and `reference_counts`, the
stores that `checker._draw_joints`, `_draw_distributions` and `_draw_counts`
must draw."""

import itertools
import math

import numpy as np

from gentropies import checker
from gentropies.distributions import Distribution, JointDistribution


def random_joints(rng, trials: int, max_rows: int, max_cols: int) -> list[JointDistribution]:
    flat, sizes, trial_rows = checker._draw_joints(rng, trials, max_rows, max_cols)
    store = checker._Trials(flat, checker.bounds_of(sizes), checker.bounds_of(trial_rows))
    ones = (store[t:t + 1] for t in range(trials))
    return [JointDistribution._wrap(one.flat, one.bounds.tolist()) for one in ones]


def random_joint(rng, max_rows: int, max_cols: int) -> JointDistribution:
    return random_joints(rng, 1, max_rows, max_cols)[0]


def random_distributions(rng, max_dims) -> list[Distribution]:
    flat, sizes, _ = checker._draw_distributions(rng, max_dims)
    return [Distribution._wrap(d) for d in np.split(flat, np.cumsum(sizes)[:-1])]


def random_distribution(rng, max_dim: int) -> Distribution:
    return random_distributions(rng, [max_dim])[0]


def random_counts(rng, max_rows: int, max_cols: int) -> tuple[int, ...]:
    return tuple(checker._draw_counts(rng, 1, max_rows, max_cols)[0].tolist())


def reference_joints(rng, trials: int, max_rows: int, max_cols: int):
    """The rejection rule of `checker._draw_joints`, one candidate joint at
    a time through ``rng.integers`` and ``rng.exponential``: its total is the
    left-to-right sum of its ``np.add.reduce`` row sums, and it is kept when
    the least exact row sum of ``cells / total`` is 1e-12 or more, else the
    next candidate takes its place.  Returns what `checker._draw_joints`
    does: the kept joints' cells, each over its exact sum, end to end; their
    row lengths; and the rows of each joint."""
    flat, sizes, trial_rows = [], [], []
    while len(trial_rows) < trials:
        rows = int(rng.integers(2, max_rows + 1))
        lengths = rng.integers(1, max_cols + 1, size=rows).tolist()
        cells = rng.exponential(1.0, size=sum(lengths))
        bounds = list(itertools.pairwise(itertools.accumulate(lengths, initial=0)))
        total = 0.0
        for i, j in bounds:
            total += float(np.add.reduce(cells[i:j]))
        scaled = cells / total
        terms = scaled.tolist()
        if min(math.fsum(terms[i:j]) for i, j in bounds) >= 1e-12:
            flat.append(scaled / math.fsum(terms))
            sizes += lengths
            trial_rows.append(rows)
    return np.concatenate(flat), np.array(sizes), trial_rows


def reference_distributions(rng, max_dims):
    """What `checker._draw_distributions` must draw, one distribution at a time
    through ``rng.integers`` and ``rng.exponential``: each one's cells over
    their ``np.add.reduce`` sum, then over the exact sum of those."""
    flat, dims = [], []
    for max_dim in max_dims:
        n = int(rng.integers(2, max(max_dim, 2) + 1))
        cells = rng.exponential(1.0, size=n)
        scaled = cells / np.add.reduce(cells)
        flat.append(scaled / math.fsum(scaled.tolist()))
        dims.append(n)
    return np.concatenate(flat), dims, [1] * len(dims)


def reference_counts(rng, trials: int, max_rows: int, max_cols: int):
    """What `checker._draw_counts` must draw, one trial at a time through
    ``rng.integers``: r in [2, max_rows], then r block sizes in [1, max_cols]."""
    counts, lengths = [], []
    for _ in range(trials):
        r = int(rng.integers(2, max_rows + 1))
        counts += rng.integers(1, max_cols + 1, size=r).tolist()
        lengths.append(r)
    return np.array(counts, dtype=np.int64), lengths, [1] * trials
