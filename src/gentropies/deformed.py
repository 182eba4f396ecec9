"""The lambda-deformed addition x (+) y = x + y + lambda*x*y.

For lambda != 0 this is a commutative group on the reals minus the pole
-1/lambda (the pole has no inverse, so operations touching it raise
:class:`SingularElement`).  The map ``h`` carries ordinary addition onto the
deformed one; all logarithms and exponentials are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, Overflow, ParameterError, SingularElement

#: denominators smaller than this count as the pole -1/lambda.
SINGULAR_THRESHOLD = 1e-300

_LN2 = math.log(2.0)


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
        den = 1.0 + self.lam * x
        if abs(den) < SINGULAR_THRESHOLD:
            raise SingularElement(f"{x!r} is at the pole of lambda={self.lam!r}")
        return -x / den

    def subtract(self, x: float, y: float) -> float:
        """Deformed difference: (x - y) / (1 + lam*y)."""
        den = 1.0 + self.lam * y
        if abs(den) < SINGULAR_THRESHOLD:
            raise SingularElement(f"{y!r} is at the pole of lambda={self.lam!r}")
        return (x - y) / den

    def h(self, x: float) -> float:
        """Group isomorphism (2**(lam*x) - 1)/lam; identity for lam == 0.

        Evaluated through expm1 so tiny lam*x does not cancel.  Raises
        :class:`Overflow` rather than saturating when 2**(lam*x) leaves the
        floating-point range.
        """
        if self.lam == 0.0:
            return x
        try:
            grown = math.expm1(_LN2 * self.lam * x)
        except OverflowError as exc:
            raise Overflow(f"2**({self.lam * x!r}) exceeds the floating-point range") from exc
        return grown / self.lam

    def h_inv(self, y: float) -> float:
        """Inverse isomorphism log2(lam*y + 1)/lam; needs lam*y + 1 > 0."""
        if self.lam == 0.0:
            return y
        t = self.lam * y
        if 1.0 + t <= 0.0:
            raise DomainError(f"lam*y + 1 = {1.0 + t!r} <= 0 for y={y!r}")
        return math.log1p(t) / (_LN2 * self.lam)

    def sum(self, xs: Iterable[float]) -> float:
        """Left fold of the deformed addition; the empty sum is 0."""
        total = 0.0
        for x in xs:
            total = self.add(total, x)
        return total
