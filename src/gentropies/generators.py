"""Generator functions of quasi-linear means.

Only the two classified families are representable: affine generators
``-c*(x + shift)`` and exponential ones ``(2**(kappa*(x + shift)) - 1)/gamma``.
These exhaust the generators compatible with product additivity, and keeping
to them makes every inverse exact.  The ``shift`` and the scale parameters
never change the mean (that is the affine-equivalence reduction); they exist
so that shifted generators appearing in derivations can be written down
literally.  An exponential result past the float range raises :class:`Overflow`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._stable import segment_sums
from .deformed import _LN2, _exp_coordinate, _log_coordinate
from .errors import DimensionError, Overflow, ParameterError
from .distributions import Distribution, _number, _require, _sized


@dataclass(frozen=True)
class LinearGenerator:
    """g(x) = -c * (x + shift), c != 0."""

    c: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and math.isfinite(self.shift)):
            raise ParameterError("linear generator parameters must be finite")
        if self.c == 0.0:
            raise ParameterError("linear generator needs c != 0")

    def evaluate(self, x):
        """g(x) of a float, or of every entry of a float64 array."""
        return -self.c * (x + self.shift)

    def invert(self, y: float) -> float:
        return -y / self.c - self.shift

    def invert_mean(self, acc: float, weights: np.ndarray, values: np.ndarray) -> float:
        """g^{-1}(acc), where acc = sum w g(v) over the ``weights`` and ``values``."""
        return self.invert(acc)

    def _invert_means(self, acc: list[float], weights: np.ndarray, values: np.ndarray,
                      starts: Sequence[int]) -> list[float]:
        """`invert_mean` of every run's accumulator at once, with the bits of `invert`."""
        return (-np.array(acc) / self.c - self.shift).tolist()


@dataclass(frozen=True)
class ExponentialGenerator:
    """g(x) = (2**(kappa*(x + shift)) - 1) / gamma, kappa != 0, gamma != 0."""

    kappa: float
    gamma: float = 1.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.kappa, self.gamma, self.shift)):
            raise ParameterError("exponential generator parameters must be finite")
        if self.kappa == 0.0:
            raise ParameterError("exponential generator needs kappa != 0")
        if self.gamma == 0.0:
            raise ParameterError("exponential generator needs gamma != 0")

    def evaluate(self, x):
        """g(x) of a float, or of every entry of a float64 array; a result past
        the floating-point range raises :class:`Overflow` (see `_exp_coordinate`)."""
        return _exp_coordinate(x, self.kappa, self.gamma, "generator", self.shift)

    def invert(self, y: float) -> float:
        return _log_coordinate(y, self.kappa, self.gamma, "generator") - self.shift

    def invert_mean(self, acc: float, weights: np.ndarray, values: np.ndarray) -> float:
        """g^{-1}(acc), where acc = sum w g(v) over the ``weights`` and ``values``.

        Where every 2**(kappa*(v + shift)) vanishes beside 1, expm1 saturates
        and gamma*acc + 1 <= 0 leaves the domain of ``invert``; only then the
        mean is taken max-factored: (m + log2 sum w 2**(e - m))/kappa - shift
        over the exponents e = kappa*(v + shift), m = max e.
        """
        if not 1.0 + self.gamma * acc <= 0.0:  # nan stays with invert
            return self.invert(acc)
        exponents = [self.kappa * (v + self.shift) for v in values.tolist()]
        top = max(exponents)
        total = math.fsum([w * 2.0 ** (e - top) for w, e in zip(weights.tolist(), exponents)])
        return (top + math.log2(total)) / self.kappa - self.shift

    def _invert_means(self, acc: list[float], weights: np.ndarray, values: np.ndarray,
                      starts: Sequence[int]) -> list[float]:
        """`invert_mean` of every run's accumulator at once, with its bits.

        t = gamma*acc and the arithmetic around log1p are numpy's correctly
        rounded operations, and log1p is libm's in one C-level map, as in
        `invert`.  Only a run whose t is not finite or has 1 + t <= 0 goes
        through `invert_mean` itself.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            t = self.gamma * np.array(acc)
            usable = np.isfinite(t) & (1.0 + t > 0.0)
        logs = np.fromiter(map(math.log1p, np.where(usable, t, 0.0).tolist()), np.float64, len(t))
        means = (logs / (_LN2 * self.kappa) - self.shift).tolist()
        for k in np.flatnonzero(~usable).tolist():
            i, j = starts[k], starts[k + 1]
            means[k] = self.invert_mean(acc[k], weights[i:j], values[i:j])
        return means


Generator = Union[LinearGenerator, ExponentialGenerator]


def quasi_mean(generator: Generator, weights: Distribution, values: Sequence[float]) -> float:
    """Quasi-linear mean g^{-1}(sum_k w_k g(v_k)).

    Terms with weight exactly 0 are skipped, so their values may be
    placeholders.  The result lies between the smallest and largest value
    carrying positive weight (up to rounding).  Values of positive weight are
    read as `make_distribution` reads entries: a non-number, or a scalar in
    place of the sequence, is a :class:`FormatError`; an iterator is read once.
    """
    _require(weights, Distribution)
    values = _sized(values, "values")
    if len(weights) != len(values):
        raise DimensionError(f"{len(weights)} weights for {len(values)} values")
    positive = weights._array > 0.0
    kept = np.array([_number(v, "value") for v in itertools.compress(values, positive.tolist())])
    return weighted_means(generator, weights._array[positive], kept, [0, len(kept)])[0]


def weighted_means(
    generator: Generator, weights: np.ndarray, values: np.ndarray, starts: Sequence[int]
) -> list[float]:
    """g^{-1}(sum w g(v)) over each run of terms ``starts[t]`` to ``starts[t + 1] - 1``
    of the positive ``weights`` and their ``values``.

    g is evaluated on all values at once, every run's accumulator is one
    exact sum (see `segment_sums`), and g^{-1} is taken of all accumulators
    at once; a sum past the float range raises :class:`Overflow`.
    """
    try:
        acc = segment_sums(weights * generator.evaluate(values), starts)
    except OverflowError as exc:
        raise Overflow("weighted sum of generator values overflowed") from exc
    return generator._invert_means(acc, weights, values, starts)
