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

from ._stable import gather, segment_sums
from .deformed import _exp_coordinate, _log_coordinate
from .errors import DimensionError, DomainError, Overflow, ParameterError
from .distributions import Distribution, _number, _require, _sized

_SATURATED = 2.0 ** -20  # 1 + gamma*acc at or below it: the mean is max-factored


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

    @np.errstate(all="ignore")  # the caller's error state changes no result
    def evaluate(self, x):
        """g(x) of a float, or of every entry of a float64 array."""
        return -self.c * (x + self.shift)

    def invert(self, y: float) -> float:
        return -y / self.c - self.shift

    def invert_mean(self, acc: float, weights: np.ndarray, values: np.ndarray) -> float:
        """g^{-1}(acc), where acc = sum w g(v) over the ``weights`` and ``values``."""
        return self.invert(acc)

    def _invert_means(self, acc: np.ndarray, weights: np.ndarray, values: np.ndarray,
                      starts: Sequence[int]) -> np.ndarray:
        """`invert_mean` of every run's accumulator at once, with the bits of `invert`."""
        return self.invert(acc)


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
        """g^{-1}(acc), where acc = sum w g(v) over the ``weights`` and ``values``."""
        return float(self._invert_means(np.array([acc]), weights, values, [0, len(values)])[0])

    @np.errstate(all="ignore")  # numpy >= 2 sets it per call and thread
    def _invert_means(self, acc: np.ndarray, weights: np.ndarray, values: np.ndarray,
                      starts: Sequence[int]) -> np.ndarray:
        """`invert_mean` of every run's accumulator at once.  Where 1 + gamma*acc passes
        ``_SATURATED``, or the run has no terms, the bits of `invert`; at or below it, sum
        w 2**e over e = kappa*(v + shift) has lost 20 bits or more, and such runs take
        (m + log2 sum w 2**(e - m))/kappa - shift, m = max e, with libm's pow and log2 and
        one exact sum per run."""
        saturated = (1.0 + self.gamma * acc <= _SATURATED) & (np.diff(starts) > 0)
        means = self.invert(np.where(saturated, 0.0, acc))
        if saturated.any():
            runs = np.flatnonzero(saturated)
            w, bounds = gather(weights, starts, runs)
            e = self.kappa * (gather(values, starts, runs)[0] + self.shift)
            m = np.maximum.reduceat(e, bounds[:-1])
            d = (e - np.repeat(m, np.diff(bounds))).tolist()
            powers = np.fromiter(map(math.pow, itertools.repeat(2.0), d), np.float64, len(d))
            sums = segment_sums(w * powers, bounds).tolist()
            logs = np.fromiter(map(math.log2, sums), np.float64, len(sums))
            means[runs] = (m + logs) / self.kappa - self.shift
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
    return float(weighted_means(generator, weights._array[positive], kept, [0, len(kept)])[0])


@np.errstate(all="ignore")  # the caller's error state changes no result
def weighted_means(
    generator: Generator, weights: np.ndarray, values: np.ndarray, starts: Sequence[int]
) -> np.ndarray:
    """g^{-1}(sum w g(v)) over each run of terms ``starts[t]`` to ``starts[t + 1] - 1``
    of the positive ``weights`` and their ``values``.

    g is evaluated on all values at once, every run's accumulator is one
    exact sum (see `segment_sums`), and g^{-1} is taken of all accumulators
    at once; a sum past the float range raises :class:`Overflow`, and one of
    opposite infinities :class:`DomainError`.
    """
    try:
        acc = segment_sums(weights * generator.evaluate(values), starts)
    except OverflowError as exc:
        raise Overflow("weighted sum of generator values overflowed") from exc
    except ValueError as exc:
        raise DomainError(f"weighted sum of generator values is undefined: {exc}") from exc
    return generator._invert_means(acc, weights, values, starts)
