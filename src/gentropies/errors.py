"""Exception hierarchy for the gentropies package.

Every error raised on purpose by this package derives from
:class:`GentropiesError`, so callers (notably the CLI) can catch one type
and report the concrete class name.  `_integer`, the integer check behind
dimensions, counts and sizes, lives here too: it needs no numpy, and every
module imports this one.
"""

import operator


class GentropiesError(Exception):
    """Base class for all gentropies errors."""


class DimensionError(GentropiesError):
    """Empty distribution, empty joint row, or a non-positive dimension."""


class NegativeMass(GentropiesError):
    """A probability entry below the negative-mass tolerance (-1e-12)."""


class NotNormalized(GentropiesError):
    """Probabilities do not sum to 1 within the input tolerance (1e-9)."""


class ZeroMarginal(GentropiesError):
    """Conditional distribution requested for a row with zero marginal."""


class EscortUndefined(GentropiesError):
    """Escort transform with non-positive exponent on a zero entry."""


class SingularElement(GentropiesError):
    """Deformed negation/subtraction at the pole -1/lambda."""


class DomainError(GentropiesError):
    """Argument outside the domain of an inverse map or power."""


class Overflow(GentropiesError):
    """An exponential blew past the floating-point range; never saturated."""


class ParameterError(GentropiesError):
    """An entropy family or generator parameter violates its constraint."""


class ConfigError(GentropiesError):
    """Invalid axiom-checker configuration."""


class FormatError(GentropiesError):
    """Unparseable distribution or joint file."""


def _integer(value, what: str, error: type[Exception] = DimensionError) -> int:
    """``value`` as a Python int if it is an integer (numpy's too), else ``error``."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
