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
    float64 array of any shape (libm's expm1 in one C-level map, numpy's correctly
    rounded arithmetic: each entry gets its bits alone; adding -0.0 changes no float).
    A finite x whose result leaves the float range raises `Overflow`, on an
    array the first such entry's in row order; an infinite x gives its limit."""
    c = _LN2 * rate
    if getattr(x, "ndim", 0):  # an array
        import numpy as np

        with np.errstate(all="ignore"), contextlib.suppress(OverflowError):
            grown = np.fromiter(map(math.expm1, ((x.ravel() + shift) * c).tolist()), float, x.size)
            grown /= scale
            if not np.isinf(grown).any():
                return grown.reshape(x.shape)
        return np.reshape([_exp_coordinate(v, rate, scale, what, shift) for v in x.flat], x.shape)
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


def _log_coordinate(y, rate: float, scale: float, what: str):
    """The inverse of `_exp_coordinate`, log1p(t)/(ln2*rate) at t = scale*y, arrays alike
    (libm's log1p in one C-level map); t + 1 <= 0 raises `DomainError`, the first in row order."""
    if getattr(y, "ndim", 0):  # an array
        import numpy as np

        with np.errstate(all="ignore"), contextlib.suppress(ValueError):  # log1p of t <= -1
            logs = np.fromiter(map(math.log1p, (scale * y.ravel()).tolist()), float, y.size)
            if not np.isinf(logs).any():  # an infinite t, maybe of a finite y: each entry alone
                return (logs / (_LN2 * rate)).reshape(y.shape)
        return np.reshape([_log_coordinate(v, rate, scale, what) for v in y.flat], y.shape)
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
        """x + y + lam*x*y, of floats or of each entry of float64 arrays with a float's bits."""
        if getattr(x, "ndim", 0) or getattr(y, "ndim", 0):  # arrays: inf past the range, as floats
            import numpy as np

            with np.errstate(all="ignore"):
                return x + y if self.lam == 0.0 else x + y + self.lam * (x * y)
        if self.lam == 0.0:  # exact, also where x*y overflows (0*inf is nan)
            return x + y
        # lam*(x*y) keeps the rounding symmetric, so add(x, y) == add(y, x)
        # exactly
        return x + y + self.lam * (x * y)

    def negate(self, x: float) -> float:
        """Inverse element: -x / (1 + lam*x)."""
        return self.subtract(-0.0, x)

    def subtract(self, x: float, y: float) -> float:
        """Deformed difference: (x - y) / (1 + lam*y), of floats or of each entry of float64
        arrays with a float's bits; a y at the pole raises, in an array the first in row order."""
        if getattr(x, "ndim", 0) or getattr(y, "ndim", 0):  # arrays: inf past the range, as floats
            import numpy as np

            with np.errstate(all="ignore"):
                den = 1.0 + self.lam * y
                for pole in np.extract(abs(den) < SINGULAR_THRESHOLD, y)[:1].tolist():
                    self.subtract(0.0, pole)  # raises the float's error
                return (x - y) / den
        den = 1.0 + self.lam * y
        if abs(den) < SINGULAR_THRESHOLD:
            raise SingularElement(f"{y!r} is at the pole of lambda={self.lam!r}")
        return (x - y) / den

    def h(self, x: float) -> float:
        """Group isomorphism (2**(lam*x) - 1)/lam; identity for lam == 0.  Raises
        :class:`Overflow`, never saturates, on a result past the float range."""
        return x if self.lam == 0.0 else _exp_coordinate(x, self.lam, self.lam, "deformation")

    def h_inv(self, y: float) -> float:
        """Inverse isomorphism log2(lam*y + 1)/lam of a float or an array; needs lam*y + 1 > 0."""
        return y if self.lam == 0.0 else _log_coordinate(y, self.lam, self.lam, "deformation")

    def sum(self, xs: Iterable[float]) -> float:
        """Left fold of the deformed addition; the empty sum is 0."""
        total = 0.0
        for x in xs:
            total = self.add(total, x)
        return total
