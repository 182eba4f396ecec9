"""The lambda-deformed addition x (+) y = x + y + lambda*x*y.

For lambda != 0 this is a commutative group on the reals minus the pole
-1/lambda (the pole has no inverse, so operations touching it raise
:class:`SingularElement`).  The map ``h`` carries ordinary addition onto the
deformed one; all logarithms and exponentials are base 2.  Its coordinate,
shared with the exponential generators, raises :class:`Overflow` on a result
past the floating-point range.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, Overflow, ParameterError, SingularElement

#: denominators smaller than this count as the pole -1/lambda.
SINGULAR_THRESHOLD = 1e-300

_LN2 = math.log(2.0)


def _float(x, what: str) -> float:
    """A scalar argument as a Python float (a numpy scalar keeps its bits)."""
    with contextlib.suppress(OverflowError):
        return float(x)
    raise Overflow(f"{what} argument is an integer past the float range")


def _exp_coordinate(x, rate: float, scale: float, what: str, shift: float = -0.0):
    """(2**(rate*(x + shift)) - 1)/scale as expm1(ln2*rate*(x + shift))/scale, so
    that a small exponent does not cancel, of a float or of each entry of a
    float64 array (libm's expm1 in one C-level map, numpy's correctly rounded
    arithmetic: each entry gets its bits alone; adding -0.0 changes no float).
    A finite x whose result leaves the float range raises `Overflow`, on an
    array the first such entry's; an infinite x gives its limit."""
    c = _LN2 * rate
    # no array exists before numpy is imported, and this module does not import it
    if isinstance(x, getattr(sys.modules.get("numpy"), "ndarray", ())) and x.ndim:
        import numpy as np

        with np.errstate(over="ignore"), contextlib.suppress(OverflowError):
            grown = np.fromiter(map(math.expm1, ((x + shift) * c).tolist()), np.float64, len(x))
            grown /= scale
            if not np.isinf(grown).any():
                return grown
        return np.array([_exp_coordinate(one, rate, scale, what, shift) for one in x.tolist()])
    x = _float(x, what)
    with contextlib.suppress(OverflowError):
        try:
            grown = math.expm1(c * (x + shift)) / scale
        except OverflowError:  # expm1 past the range: 2**exponent/scale, the power of two apart
            e = rate * (x + shift)
            grown = math.ldexp(2.0 ** (e % 1.0) / scale, math.floor(e))
        if not math.isinf(grown) or math.isinf(x):
            return grown
    raise Overflow(f"{what} exponent {rate * (x + shift)!r} overflowed")


def _log_coordinate(y: float, rate: float, scale: float, what: str) -> float:
    """The inverse of `_exp_coordinate`: log1p(t)/(ln2*rate) at t = scale*y."""
    y = _float(y, what)
    t = scale * y
    if 1.0 + t <= 0.0:
        raise DomainError(f"{scale!r}*y + 1 = {1.0 + t!r} <= 0 is outside the {what} range")
    if math.isinf(t) and math.isfinite(y):  # t alone passes the range: log1p(t) = log|scale*y|
        return (math.log(abs(scale)) + math.log(abs(y))) / (_LN2 * rate)
    return math.log1p(t) / (_LN2 * rate)


@dataclass(frozen=True)
class Deformation:
    """Deformation parameter; ``lam == 0`` is exact ordinary addition.

    The zero case is a separate branch, not a limit of the general formula,
    so callers probing small-lambda behaviour must pass a nonzero value.
    """

    lam: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam):
            raise ParameterError(f"deformation parameter must be finite, got {self.lam!r}")

    def add(self, x: float, y: float) -> float:
        """x + y + lam*x*y."""
        if self.lam == 0.0:  # exact, also where x*y overflows (0*inf is nan)
            return x + y
        # lam*(x*y) keeps the rounding symmetric, so add(x, y) == add(y, x)
        # exactly
        return x + y + self.lam * (x * y)

    def negate(self, x: float) -> float:
        """Inverse element: -x / (1 + lam*x)."""
        return self.subtract(-0.0, x)

    def subtract(self, x: float, y: float) -> float:
        """Deformed difference: (x - y) / (1 + lam*y)."""
        den = 1.0 + self.lam * y
        if abs(den) < SINGULAR_THRESHOLD:
            raise SingularElement(f"{y!r} is at the pole of lambda={self.lam!r}")
        return (x - y) / den

    def h(self, x: float) -> float:
        """Group isomorphism (2**(lam*x) - 1)/lam; identity for lam == 0.  Raises
        :class:`Overflow`, never saturates, on a result past the float range."""
        return x if self.lam == 0.0 else _exp_coordinate(x, self.lam, self.lam, "deformation")

    def h_inv(self, y: float) -> float:
        """Inverse isomorphism log2(lam*y + 1)/lam; needs lam*y + 1 > 0."""
        return y if self.lam == 0.0 else _log_coordinate(y, self.lam, self.lam, "deformation")

    def sum(self, xs: Iterable[float]) -> float:
        """Left fold of the deformed addition; the empty sum is 0."""
        total = 0.0
        for x in xs:
            total = self.add(total, x)
        return total
