"""The four entropy families and their escort-weighted conditional forms.

All logarithms are base 2, the conventions 0*log 0 := 0 and 0**a := 0 (a > 0)
apply throughout, and removable singularities are never bridged silently:
``alpha = 1`` and ``lam = 0`` are separate exact branches that must be
requested through the matching family, never reached as limits.

Families
--------
Shannon(tau)
    tau * sum_k p_k log2 p_k, tau < 0.
GeneralEscort(alpha, tau, lam)
    The two-branch escort family: tau * sum_k p_k^(alpha) log2 p_k for
    lam == 0, and -(1/lam) log2(sum p**beta / sum p**alpha) with
    beta = alpha - tau*lam otherwise.  Strongly additive only when beta == 1.
Nath(alpha, lam, tau)
    tau * sum p log2 p at alpha == 1, else (1/lam) log2 sum p**alpha with
    (1 - alpha)/lam > 0.  The Renyi entropy is Nath with lam = 1 - alpha,
    tau = -1.
HCT(alpha, lam, tau)
    (1/lam) (sum p**alpha - 1); composes by the lam-deformed addition.
    Tsallis at lam = 1 - alpha, Havrda-Charvat at lam = 2**(1-alpha) - 1.

Each family class holds its formula (and its closed form on the uniforms U_n,
from n alone), uniform trace, mean and composition law.
Conditional entropies weight the per-row entropies by the alpha-escort of
the marginal: Shannon and the alpha == 1 / lam == 0 branches use the plain
weighted average, Nath/GeneralEscort with lam != 0 use the quasi-linear mean
with exponential generator 2**(lam*x), and HCT always averages linearly
(its deformation lives in the composition law instead).

Loading this module loads no numpy: the family classes, the constructors,
`make_family` and `uniform_trace` are plain Python, and the functions that
compute on arrays import `_stable`, `distributions` and numpy when called.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence, Union

from .deformed import Deformation
from .errors import DimensionError, DomainError, Overflow, ParameterError, _integer

if TYPE_CHECKING:  # for the annotations alone
    import numpy as np

    from .distributions import Distribution, JointDistribution

#: |alpha - tau*lam - 1| allowed when validating HCT parameters.
HCT_CONSTRAINT_TOLERANCE = 1e-9


@functools.cache
def _numeric(name: str):
    """Module ``name`` of this package, imported once: a call costs a tenth of a relative import."""
    return importlib.import_module(f".{name}", __package__)


def _require_finite(family_name: str, **params: float) -> None:
    for key, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{family_name}: {key} must be finite, got {value!r}")


class _Family:
    """A family's laws, those of tau * sum P_alpha(p) log2 p unless it overrides them:
    Shannon (alpha 1), Nath at alpha 1 and the lam == 0 escort share this formula.

    Report ``name``, entropy ``_formula`` of each run between consecutive
    bounds of a flat array of distributions (a float64 entry per run), the
    same in closed form on U_n for each n of ``dims`` (``_uniform``), uniform
    ``_trace`` from log2 n, escort exponent ``alpha`` and exponential-mean
    ``mean_kappa`` (0: linear mean) of the conditional entropy, and the
    ``composition`` of a marginal's entropy with the conditional one.
    """

    name: ClassVar[str]
    mean_kappa: ClassVar[float] = 0.0
    composition: ClassVar[Deformation] = Deformation()  # ordinary addition

    def _formula(self, flat: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
        return self.tau * _numeric("_stable").weighted_log2_sum(flat, bounds, self.alpha)

    def _uniform(self, dims: np.ndarray) -> np.ndarray:
        return self.tau * _numeric("_stable").uniform_weighted_log2_sum(dims, self.alpha)

    def _trace(self, n: int, log_n: float) -> float:
        return -self.tau * log_n


@dataclass(frozen=True)
class Shannon(_Family):
    """tau * sum p log2 p with tau < 0 (tau = -1 gives bits)."""

    tau: float = -1.0

    name: ClassVar[str] = "shannon"
    alpha: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        _require_finite("shannon", tau=self.tau)
        if not self.tau < 0.0:
            raise ParameterError(f"shannon: tau must be negative, got {self.tau!r}")


@dataclass(frozen=True)
class GeneralEscort(_Family):
    """The escort family with free exponent beta = alpha - tau*lam.

    Requires tau < 0 and beta > 0.  Only beta == 1 (alpha == 1 in the
    lam == 0 branch) is strongly additive; other members exist precisely to
    exhibit the violation on the counterexample probe.
    """

    alpha: float
    tau: float
    lam: float

    name: ClassVar[str] = "general_escort"

    def __post_init__(self) -> None:
        _require_finite("general", alpha=self.alpha, tau=self.tau, lam=self.lam)
        if not self.tau < 0.0:
            raise ParameterError(f"general: tau must be negative, got {self.tau!r}")
        if not self.beta > 0.0:
            raise ParameterError(
                f"general: alpha - tau*lambda must be positive, got {self.beta!r}"
            )

    @property
    def beta(self) -> float:
        return self.alpha - self.tau * self.lam

    @property
    def mean_kappa(self) -> float:
        return self.lam

    def _formula(self, flat: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
        # some run holds an exact zero
        if self.alpha <= 0.0 and not flat.all():
            raise DomainError(
                f"zero probability with non-positive exponent alpha={self.alpha!r}"
            )
        if self.lam == 0.0:
            return super()._formula(flat, bounds)
        return -_numeric("_stable").log2_power_sum(flat, bounds, self.beta, self.alpha) / self.lam

    def _uniform(self, dims: np.ndarray) -> np.ndarray:
        if self.lam == 0.0:
            return super()._uniform(dims)
        return -_numeric("_stable").uniform_log2_power_sum(dims, self.beta, self.alpha) / self.lam


@dataclass(frozen=True)
class Nath(_Family):
    """(1/lam) log2 sum p**alpha for alpha != 1; the Shannon form at alpha == 1."""

    alpha: float
    lam: float
    tau: float

    name: ClassVar[str] = "nath"

    def __post_init__(self) -> None:
        _require_finite("nath", alpha=self.alpha, lam=self.lam, tau=self.tau)
        if not self.alpha > 0.0:
            raise ParameterError(f"nath: alpha must be positive, got {self.alpha!r}")
        if self.alpha == 1.0:
            if not self.tau < 0.0:
                raise ParameterError(f"nath: tau must be negative, got {self.tau!r}")
        else:
            if self.lam == 0.0:
                raise ParameterError("nath: lambda must be nonzero when alpha != 1")
            if not (1.0 - self.alpha) / self.lam > 0.0:
                raise ParameterError(
                    "nath: (1 - alpha)/lambda must be positive, got "
                    f"{(1.0 - self.alpha) / self.lam!r}"
                )

    @property
    def mean_kappa(self) -> float:
        return 0.0 if self.alpha == 1.0 else self.lam

    def _formula(self, flat: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
        if self.alpha == 1.0:
            return super()._formula(flat, bounds)
        return _numeric("_stable").log2_power_sum(flat, bounds, self.alpha) / self.lam

    def _uniform(self, dims: np.ndarray) -> np.ndarray:
        if self.alpha == 1.0:
            return super()._uniform(dims)
        return _numeric("_stable").uniform_log2_power_sum(dims, self.alpha) / self.lam

    def _trace(self, n: int, log_n: float) -> float:
        if self.alpha == 1.0:
            return super()._trace(n, log_n)
        return (log_n - self.alpha * log_n) / self.lam


@dataclass(frozen=True)
class HCT(_Family):
    """(1/lam) (sum p**alpha - 1) with the strong-additivity tie alpha - tau*lam = 1."""

    alpha: float
    lam: float
    tau: float

    name: ClassVar[str] = "hct"

    def __post_init__(self) -> None:
        _require_finite("hct", alpha=self.alpha, lam=self.lam, tau=self.tau)
        if not self.alpha > 0.0:
            raise ParameterError(f"hct: alpha must be positive, got {self.alpha!r}")
        if self.alpha == 1.0:
            raise ParameterError("hct: alpha must differ from 1 (use shannon)")
        if self.lam == 0.0:
            raise ParameterError("hct: lambda must be nonzero (use shannon)")
        if not (1.0 - self.alpha) / self.lam > 0.0:
            raise ParameterError(
                "hct: (1 - alpha)/lambda must be positive, got "
                f"{(1.0 - self.alpha) / self.lam!r}"
            )
        if abs(self.alpha - self.tau * self.lam - 1.0) > HCT_CONSTRAINT_TOLERANCE:
            raise ParameterError(
                "hct: alpha - tau*lambda must equal 1, got "
                f"{self.alpha - self.tau * self.lam!r}"
            )

    @property
    def composition(self) -> Deformation:
        return Deformation(self.lam)

    def _formula(self, flat: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
        return (_numeric("_stable").power_sum(flat, bounds, self.alpha) - 1.0) / self.lam

    def _uniform(self, dims: np.ndarray) -> np.ndarray:
        return (_numeric("_stable").uniform_power_sum(dims, self.alpha) - 1.0) / self.lam

    def _trace(self, n: int, log_n: float) -> float:
        try:
            zpow = (1.0 / n) ** (self.tau * self.lam)
        except OverflowError:  # 1.0 / n is not a float from n = 2**1024 on: h_lam(-tau log2 n)
            return self.composition.h(-self.tau * log_n)
        return (zpow - 1.0) / self.lam


EntropyFamily = Union[Shannon, GeneralEscort, Nath, HCT]


def family_name(family: EntropyFamily) -> str:
    return family.name


def family_params(family: EntropyFamily) -> dict[str, float]:
    """Parameters in declaration order, for reports and error messages."""
    return {f.name: getattr(family, f.name) for f in fields(family)}


# ---------------------------------------------------------------------------
# Convenience constructors


def shannon(tau: float = -1.0) -> Shannon:
    return Shannon(tau)


def general_escort(alpha: float, tau: float, lam: float) -> GeneralEscort:
    return GeneralEscort(alpha, tau, lam)


def nath(alpha: float, lam: float, tau: float) -> Nath:
    return Nath(alpha, lam, tau)


def renyi(alpha: float) -> Nath:
    """Renyi entropy of order alpha: the Nath member lam = 1 - alpha, tau = -1."""
    return Nath(alpha, 1.0 - alpha, -1.0)


def strongly_additive_nath(alpha: float, lam: float) -> Nath:
    """Nath member with tau = (alpha - 1)/lam, i.e. escort exponent beta = 1."""
    if lam == 0.0:
        raise ParameterError("nath: lambda must be nonzero when alpha != 1")
    return Nath(alpha, lam, (alpha - 1.0) / lam)


def tsallis(alpha: float) -> HCT:
    """HCT member lam = 1 - alpha, tau = -1."""
    return HCT(alpha, 1.0 - alpha, -1.0)


def havrda_charvat(alpha: float) -> HCT:
    """HCT member lam = 2**(1 - alpha) - 1, normalized to 1 on the fair coin."""
    lam = 2.0 ** (1.0 - alpha) - 1.0
    if lam == 0.0:
        raise ParameterError("havrda-charvat: alpha must differ from 1")
    return HCT(alpha, lam, (alpha - 1.0) / lam)


def hct(alpha: float, lam: float, tau: float) -> HCT:
    return HCT(alpha, lam, tau)


#: CLI family name -> (parameter flags in constructor order, constructor).
_FAMILY_TABLE: dict[str, tuple[tuple[str, ...], Callable[..., EntropyFamily]]] = {
    "shannon": (("tau",), shannon),
    "general": (("alpha", "tau", "lambda"), general_escort),
    "nath": (("alpha", "lambda", "tau"), nath),
    "renyi": (("alpha",), renyi),
    "tsallis": (("alpha",), tsallis),
    "havrda-charvat": (("alpha",), havrda_charvat),
    "havrda_charvat": (("alpha",), havrda_charvat),
    "hct": (("alpha", "lambda", "tau"), hct),
}


def make_family(
    name: str,
    alpha: float | None = None,
    lam: float | None = None,
    tau: float | None = None,
) -> EntropyFamily:
    """Build a validated family from its CLI name and parameter flags.

    Recognized names: ``shannon``, ``general``, ``nath``, ``renyi``,
    ``tsallis``, ``havrda-charvat``, ``hct``.  Flags a family does not take
    are rejected; ``shannon`` defaults to tau = -1 when the flag is omitted.
    """
    build, params = _family_builder(name, alpha, lam, tau)
    return build(*params)


def _family_builder(name: str, alpha, lam, tau) -> tuple[Callable[..., EntropyFamily], list]:
    """`make_family`'s checks of the name and flag set; its builder and arguments."""
    key = name.lower()
    if key not in _FAMILY_TABLE:
        raise ParameterError(f"unknown family {name!r}")
    allowed, build = _FAMILY_TABLE[key]
    given = {"alpha": alpha, "lambda": lam, "tau": tau}
    for flag, value in given.items():
        if value is not None and flag not in allowed:
            raise ParameterError(f"family {name!r} does not take --{flag}")
    missing = [f for f in allowed if given[f] is None and (key, f) != ("shannon", "tau")]
    if missing:
        raise ParameterError(f"family {name!r} needs --{' --'.join(missing)}")
    # only shannon's optional tau can still be None; its default then applies
    return build, [given[f] for f in allowed if given[f] is not None]


# ---------------------------------------------------------------------------
# Entropy operations


def _require_family(family: EntropyFamily) -> None:
    if not isinstance(family, _Family):
        raise TypeError(f"unknown entropy family {family!r}")


def span_entropies(family: EntropyFamily, flat: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """`entropy` of the distribution in each run ``flat[bounds[k]:bounds[k + 1]]``, in one
    float64 array; a kernel's ``OverflowError`` is `Overflow`, its ``ValueError`` `DomainError`."""
    return _typed(family, lambda: family._formula(flat, bounds))


def uniform_entropies(family: EntropyFamily, dims: Sequence[int]) -> np.ndarray:
    """`span_entropies` of the uniforms U_n, n in ``dims`` (1 <= n < 2**53), with its bits and
    errors, in closed form from n alone: no cell is built."""
    import numpy as np
    return _typed(family, lambda: family._uniform(np.asarray(dims, dtype=np.float64)))


def _typed(family: EntropyFamily, formula: Callable[[], np.ndarray]) -> np.ndarray:
    """``formula()``, the entropies of ``family`` on some runs, with the kernels' errors typed
    and a value that is not finite raised as `Overflow`."""
    import numpy as np
    _require_family(family)
    try:
        with np.errstate(all="ignore"):  # the caller's error state changes no result
            values = formula()
    except OverflowError as exc:
        raise Overflow(f"{family.name} entropy overflowed: {exc}") from exc
    except ValueError as exc:
        raise DomainError(f"{family.name} entropy is undefined: {exc}") from exc
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < len(values):
        raise Overflow(f"{family.name} entropy is not finite: {float(values[~finite][0])!r}")
    return values


def entropy(family: EntropyFamily, dist: Distribution) -> float:
    """Entropy of ``dist`` under ``family``; nonnegative, zero iff point mass.

    Raises :class:`Overflow` when the value is past the float range.
    """
    distributions = _numeric("distributions")
    distributions._require(dist, distributions.Distribution)
    return float(span_entropies(family, dist._array, [0, len(dist)])[0]) + 0.0  # -0.0 to 0.0


def conditional_rows(family: EntropyFamily, joint: JointDistribution, groups, margs) -> tuple:
    """The rows of positive escort weight of each group of consecutive rows of ``joint``,
    rows ``groups[t]`` to ``groups[t + 1] - 1`` forming joint t, whose marginals ``margs``
    holds end to end (see `distributions.group_marginals`): gathered once (a view when every
    row has weight) and divided by their exact sums at once, their bounds and weights, and
    where each group's rows start among them.  `conditional_means` of their entropies is each
    joint's `conditional_entropy`; a caller may take those entropies in a call with its own runs."""
    import numpy as np
    _stable = _numeric("_stable")
    _require_family(family)
    weights = _numeric("distributions")._escort(margs, groups, family.alpha)
    positive = np.flatnonzero(weights > 0.0)
    cells, bounds = _stable.gather(joint._flat, joint._bounds, positive)
    # a view of the joint's read-only cells is divided into a new array, a gathered copy in place
    cells = _stable.divide_runs(cells, joint._row_sums()[positive], bounds,
                                out=cells if cells.flags.writeable else None)
    return cells, bounds, weights[positive], np.searchsorted(positive, groups).tolist()


def conditional_means(family: EntropyFamily, weights, values, starts) -> np.ndarray:
    """Each group's escort-weighted mean of its rows' entropies ``values`` (`conditional_rows`)."""
    import numpy as np
    if (kappa := family.mean_kappa) == 0.0:
        with np.errstate(all="ignore"):  # the caller's error state changes no result
            return _numeric("_stable").segment_sums(weights * values, starts)
    from .generators import ExponentialGenerator, weighted_means  # only kappa != 0 loads them
    return weighted_means(ExponentialGenerator(kappa=kappa), weights, values, starts)


def conditional_entropy(family: EntropyFamily, joint: JointDistribution) -> float:
    """Escort-weighted conditional entropy of the column variable given the row.

    Rows with zero marginal carry escort weight exactly 0 and are skipped.
    """
    from .distributions import JointDistribution, _require, group_marginals
    _require(joint, JointDistribution)
    groups = [0, len(joint)]
    cells, bounds, weights, starts = conditional_rows(family, joint, groups,
                                                      group_marginals(joint, groups))
    values = span_entropies(family, cells, bounds)
    return conditional_means(family, weights, values, starts).item() + 0.0


def joint_entropy(family: EntropyFamily, joint: JointDistribution) -> float:
    """Entropy of the flattened joint distribution."""
    return entropy(family, _numeric("distributions").flatten(joint))


def uniform_trace(family: EntropyFamily, n: int) -> float:
    """Closed-form entropy of the n-point uniform distribution.

    Computed without constructing the distribution; this is the analytic
    trace that the uniformity axioms constrain, e.g. log2 n for Renyi and
    (n**(1 - alpha) - 1)/lam for Tsallis-like members.
    """
    n = _integer(n, "uniform trace dimension")
    if n < 1:
        raise DimensionError(f"uniform trace needs n >= 1, got {n}")
    _require_family(family)
    # log2 of the integer itself: float(n) overflows from n = 2**1024 on
    return family._trace(n, math.log2(n)) + 0.0
