"""Generator functions of quasi-linear means.

Only the two classified families are representable: affine generators
``-c*(x + shift)`` and exponential ones ``(2**(kappa*(x + shift)) - 1)/gamma``.
These exhaust the generators compatible with product additivity, and keeping
to them makes every inverse exact.  The ``shift`` and the scale parameters
never change the mean (that is the affine-equivalence reduction); they exist
so that shifted generators appearing in derivations can be written down
literally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._stable import _libm, segment_sums
from .errors import DimensionError, DomainError, Overflow, ParameterError
from .distributions import Distribution

_LN2 = math.log(2.0)


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
        """g(x) of a float, or of every entry of a float64 array.

        expm1 keeps small exponents from cancelling in 2**t - 1.  An array
        takes libm's expm1 in one C-level map and the basic operations in
        numpy, which rounds them as Python does, so every entry gets the bits
        it gets alone.
        """
        exponent = (x + self.shift) * (_LN2 * self.kappa)
        try:
            if isinstance(exponent, np.ndarray):
                grown = _libm(math.expm1, exponent)
            else:
                grown = math.expm1(exponent)
        except OverflowError as exc:
            if isinstance(x, np.ndarray):  # the first entry that overflows alone
                for one in x.tolist():
                    self.evaluate(one)
            raise Overflow(
                f"generator exponent {self.kappa * (x + self.shift)!r} overflowed"
            ) from exc
        return grown / self.gamma

    def invert(self, y: float) -> float:
        t = self.gamma * y
        if 1.0 + t <= 0.0:
            raise DomainError(
                f"gamma*y + 1 = {1.0 + t!r} <= 0 is outside the generator range"
            )
        return math.log1p(t) / (_LN2 * self.kappa) - self.shift

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


Generator = Union[LinearGenerator, ExponentialGenerator]


def quasi_mean(
    generator: Generator, weights: Distribution, values: Sequence[float]
) -> float:
    """Quasi-linear mean g^{-1}(sum_k w_k g(v_k)).

    Terms with weight exactly 0 are skipped, so their values may be
    placeholders.  The result lies between the smallest and largest value
    carrying positive weight (up to rounding).
    """
    if len(weights) != len(values):
        raise DimensionError(f"{len(weights)} weights for {len(values)} values")
    positive = weights._array > 0.0
    kept = np.fromiter(itertools.compress(values, positive.tolist()), np.float64)
    return weighted_means(generator, weights._array[positive], kept, [0, len(kept)])[0]


def weighted_means(
    generator: Generator, weights: np.ndarray, values: np.ndarray, starts: Sequence[int]
) -> list[float]:
    """g^{-1}(sum w g(v)) over each run of terms ``starts[t]`` to ``starts[t + 1] - 1``
    of the positive ``weights`` and their ``values``.

    g is evaluated on all values at once, and every run's accumulator is
    one exact sum (see `segment_sums`).
    """
    acc = segment_sums(weights * generator.evaluate(values), starts)
    return [generator.invert_mean(a, weights[i:j], values[i:j])
            for a, i, j in zip(acc, starts, starts[1:])]
