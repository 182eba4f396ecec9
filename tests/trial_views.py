"""The suite's draws as objects, one per trial: `run_suite` reads the
stores of `checker._draw_suite`; the tests compare trials one by one."""

import numpy as np

from gentropies import checker
from gentropies.distributions import Distribution, JointDistribution


def random_joints(rng, trials: int, max_rows: int, max_cols: int) -> list[JointDistribution]:
    store = checker._Trials(*checker._draw_joints(rng, trials, max_rows, max_cols))
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
