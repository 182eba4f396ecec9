"""The suite's draws as objects, one per trial: `run_suite` reads the
stores of `checker._draw_suite`; the tests compare trials one by one.  And
`reference_joints`, `reference_distributions` and `reference_counts`, the
stores that `checker._draw_joints`, `_draw_distributions` and `_draw_counts`
must draw: draw order 2, the Generator calls that their docstrings state,
with each trial's sums and its rejection taken in plain Python."""

import itertools
import math

import numpy as np

from gentropies import checker
from gentropies._stable import bounds_of
from gentropies.distributions import Distribution, JointDistribution


def _ones(store):
    return (store[t:t + 1] for t in range(len(store)))


def joints_of(store) -> list[JointDistribution]:
    return [JointDistribution._wrap(one.flat, one.bounds.tolist()) for one in _ones(store)]


def pairs_of(store) -> list[tuple[Distribution, Distribution]]:
    return [tuple(map(Distribution._wrap, np.split(one.flat, one.bounds[1:-1]))) for one in _ones(store)]


def counts_of(store) -> list[tuple[int, ...]]:
    return [tuple(one.flat.tolist()) for one in _ones(store)]


def _store(cells: list, lengths: list, rows: list) -> checker._Trials:
    return checker._Trials(np.concatenate(cells), bounds_of(np.concatenate(lengths)), bounds_of(rows))


def store_of_joints(joints) -> checker._Trials:
    """The store whose trials are ``joints``: the inverse of `joints_of`."""
    return _store([j._flat for j in joints], [np.diff(j._bounds) for j in joints],
                  list(map(len, joints)))


def store_of_pairs(pairs) -> checker._Trials:
    """The store whose trials are the pairs p, q of ``pairs``: the inverse of `pairs_of`."""
    return _store([d._array for pq in pairs for d in pq], [list(map(len, pq)) for pq in pairs],
                  [2] * len(pairs))


def store_of_counts(counts) -> checker._Trials:
    """The store whose trials are the block sizes ``counts``: the inverse of `counts_of`."""
    return _store([np.array(c, dtype=np.intp) for c in counts], [[len(c)] for c in counts],
                  [1] * len(counts))


def random_joint(rng, max_rows: int, max_cols: int) -> JointDistribution:
    return joints_of(checker._draw_joints(rng, 1, max_rows, max_cols))[0]


def random_pair(rng, max_rows: int, max_cols: int) -> tuple[Distribution, Distribution]:
    return pairs_of(checker._draw_distributions(rng, 1, max_rows, max_cols))[0]


def random_counts(rng, max_rows: int, max_cols: int) -> tuple[int, ...]:
    return counts_of(checker._draw_counts(rng, 1, max_rows, max_cols))[0]


def _cut(values: list, lengths: list) -> list[list]:
    """``values`` cut into consecutive runs of ``lengths``."""
    ends = list(itertools.accumulate(lengths, initial=0))
    return [values[i:j] for i, j in itertools.pairwise(ends)]


def _over_fsum(cells: list) -> list:
    total = math.fsum(cells)
    return [c / total for c in cells]


def reference_joints(rng, trials: int, max_rows: int, max_cols: int):
    """The rejection loop of `checker._draw_joints`: k candidates (``trials`` at
    first) drawn as their row counts, then all their row lengths, then all their
    cells, one ``rng.integers`` or ``rng.exponential`` call each; a candidate is
    its cells over their ``math.fsum``, kept when the ``math.fsum`` of each of its
    rows is 1e-12 or more, and k is then the number refused.  Returns the kept
    joints' cells end to end, their row lengths and the rows of each joint."""
    flat, sizes, trial_rows = [], [], []
    while need := trials - len(trial_rows):
        rows = rng.integers(2, max_rows + 1, size=need).tolist()
        lengths = rng.integers(1, max_cols + 1, size=sum(rows)).tolist()
        cells = rng.exponential(1.0, size=sum(lengths)).tolist()
        per_trial = _cut(lengths, rows)
        for own, mine in zip(per_trial, _cut(cells, list(map(sum, per_trial)))):
            scaled = _over_fsum(mine)
            if min(map(math.fsum, _cut(scaled, own))) >= 1e-12:
                flat += scaled
                sizes += own
                trial_rows.append(len(own))
    return np.array(flat), np.array(sizes), trial_rows


def reference_distributions(rng, trials: int, max_rows: int, max_cols: int):
    """What `checker._draw_distributions` must draw: every pair's two dimensions,
    p's from [2, max(max_rows, 2)] and q's from [2, max(max_cols, 2)], in one
    ``rng.integers`` call, then all their cells in one ``rng.exponential`` call;
    each distribution is its cells over their ``math.fsum``.  Returns the cells
    end to end, the dimensions and two rows per trial."""
    highs = np.maximum([max_rows, max_cols], 2) + 1
    dims = rng.integers(2, highs, size=(trials, 2)).ravel().tolist()
    cells = rng.exponential(1.0, size=sum(dims)).tolist()
    flat = [c for run in _cut(cells, dims) for c in _over_fsum(run)]
    return np.array(flat), np.array(dims), [2] * trials


def reference_counts(rng, trials: int, max_rows: int, max_cols: int):
    """What `checker._draw_counts` must draw: every trial's number r of blocks in
    [2, max_rows], then all their sizes in [1, max_cols], one ``rng.integers``
    call each.  Returns the sizes end to end, the r and one row per trial."""
    rows = rng.integers(2, max_rows + 1, size=trials).tolist()
    return np.array(rng.integers(1, max_cols + 1, size=sum(rows))), np.array(rows), [1] * trials
