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

Conditional entropies weight the per-row entropies by the alpha-escort of
the marginal: Shannon and the alpha == 1 / lam == 0 branches use the plain
weighted average, Nath/GeneralEscort with lam != 0 use the quasi-linear mean
with exponential generator 2**(lam*x), and HCT always averages linearly
(its deformation lives in the composition law instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

from ._stable import (
    exact_sum,
    log2_power_sum,
    plogp_sum,
    power_sum,
    weighted_log2_sum,
)
from .distributions import (
    Distribution,
    JointDistribution,
    conditional,
    escort,
    flatten,
    marginal,
)
from .errors import DimensionError, DomainError, Overflow, ParameterError
from .generators import ExponentialGenerator, quasi_mean

#: |alpha - tau*lam - 1| allowed when validating HCT parameters.
HCT_CONSTRAINT_TOLERANCE = 1e-9


def _require_finite(family_name: str, **params: float) -> None:
    for key, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{family_name}: {key} must be finite, got {value!r}")


@dataclass(frozen=True)
class Shannon:
    """tau * sum p log2 p with tau < 0 (tau = -1 gives bits)."""

    tau: float = -1.0

    def __post_init__(self) -> None:
        _require_finite("shannon", tau=self.tau)
        if not self.tau < 0.0:
            raise ParameterError(f"shannon: tau must be negative, got {self.tau!r}")


@dataclass(frozen=True)
class GeneralEscort:
    """The escort family with free exponent beta = alpha - tau*lam.

    Requires tau < 0 and beta > 0.  Only beta == 1 (alpha == 1 in the
    lam == 0 branch) is strongly additive; other members exist precisely to
    exhibit the violation on the counterexample probe.
    """

    alpha: float
    tau: float
    lam: float

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


@dataclass(frozen=True)
class Nath:
    """(1/lam) log2 sum p**alpha for alpha != 1; the Shannon form at alpha == 1."""

    alpha: float
    lam: float
    tau: float

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


@dataclass(frozen=True)
class HCT:
    """(1/lam) (sum p**alpha - 1) with the strong-additivity tie alpha - tau*lam = 1."""

    alpha: float
    lam: float
    tau: float

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


EntropyFamily = Union[Shannon, GeneralEscort, Nath, HCT]

_FAMILY_NAMES = {
    Shannon: "shannon",
    GeneralEscort: "general_escort",
    Nath: "nath",
    HCT: "hct",
}


def family_name(family: EntropyFamily) -> str:
    return _FAMILY_NAMES[type(family)]


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


_FAMILY_FLAGS: dict[str, tuple[str, ...]] = {
    "shannon": ("tau",),
    "general": ("alpha", "tau", "lambda"),
    "nath": ("alpha", "lambda", "tau"),
    "renyi": ("alpha",),
    "tsallis": ("alpha",),
    "havrda-charvat": ("alpha",),
    "havrda_charvat": ("alpha",),
    "hct": ("alpha", "lambda", "tau"),
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
    key = name.lower()
    if key not in _FAMILY_FLAGS:
        raise ParameterError(f"unknown family {name!r}")
    allowed = _FAMILY_FLAGS[key]
    given = {"alpha": alpha, "lambda": lam, "tau": tau}
    for flag, value in given.items():
        if value is not None and flag not in allowed:
            raise ParameterError(f"family {name!r} does not take --{flag}")
    missing = [f for f in allowed if given[f] is None and (key, f) != ("shannon", "tau")]
    if missing:
        raise ParameterError(f"family {name!r} needs --{' --'.join(missing)}")

    if key == "shannon":
        return Shannon(tau if tau is not None else -1.0)
    if key == "general":
        return GeneralEscort(alpha, tau, lam)
    if key == "nath":
        return Nath(alpha, lam, tau)
    if key == "renyi":
        return renyi(alpha)
    if key == "tsallis":
        return tsallis(alpha)
    if key == "hct":
        return HCT(alpha, lam, tau)
    return havrda_charvat(alpha)


# ---------------------------------------------------------------------------
# Entropy operations


def _check_zero_support(family: GeneralEscort, dist: Distribution) -> None:
    if family.alpha <= 0.0 and not dist._array.all():  # some entry is exactly zero
        raise DomainError(
            f"zero probability with non-positive exponent alpha={family.alpha!r}"
        )


def entropy(family: EntropyFamily, dist: Distribution) -> float:
    """Entropy of ``dist`` under ``family``; nonnegative, zero iff point mass."""
    probs = dist._array
    if isinstance(family, Shannon):
        return family.tau * plogp_sum(probs)
    if isinstance(family, Nath):
        if family.alpha == 1.0:
            return family.tau * plogp_sum(probs)
        return log2_power_sum(probs, family.alpha) / family.lam
    if isinstance(family, GeneralEscort):
        _check_zero_support(family, dist)
        if family.lam == 0.0:
            weights = escort(dist, family.alpha)._array
            return family.tau * weighted_log2_sum(weights, probs)
        return -(
            log2_power_sum(probs, family.beta) - log2_power_sum(probs, family.alpha)
        ) / family.lam
    if isinstance(family, HCT):
        return (power_sum(probs, family.alpha) - 1.0) / family.lam
    raise TypeError(f"unknown entropy family {family!r}")


def _escort_exponent(family: EntropyFamily) -> float:
    return 1.0 if isinstance(family, Shannon) else family.alpha


def _uses_exponential_mean(family: EntropyFamily) -> bool:
    # HCT deforms the composition law instead of the mean; Shannon and the
    # alpha == 1 / lam == 0 branches average linearly.
    if isinstance(family, GeneralEscort):
        return family.lam != 0.0
    if isinstance(family, Nath):
        return family.alpha != 1.0
    return False


def conditional_entropy(family: EntropyFamily, joint: JointDistribution) -> float:
    """Escort-weighted conditional entropy of the column variable given the row.

    Rows with zero marginal carry escort weight exactly 0 and are skipped.
    """
    marg = marginal(joint)
    weights = escort(marg, _escort_exponent(family))
    values = [
        entropy(family, conditional(joint, k)) if w > 0.0 else 0.0
        for k, w in enumerate(weights.probs)
    ]
    if _uses_exponential_mean(family):
        return quasi_mean(ExponentialGenerator(kappa=family.lam), weights, values)
    return exact_sum(w * v for w, v in zip(weights.probs, values) if w > 0.0)


def joint_entropy(family: EntropyFamily, joint: JointDistribution) -> float:
    """Entropy of the flattened joint distribution."""
    return entropy(family, flatten(joint))


def uniform_trace(family: EntropyFamily, n: int) -> float:
    """Closed-form entropy of the n-point uniform distribution.

    Computed without constructing the distribution; this is the analytic
    trace that the uniformity axioms constrain, e.g. log2 n for Renyi and
    (n**(1 - alpha) - 1)/lam for Tsallis-like members.
    """
    if n < 1:
        raise DimensionError(f"uniform trace needs n >= 1, got {n}")
    # log2 of the integer itself: float(n) overflows from n = 2**1024 on
    log_n = math.log2(n)
    if isinstance(family, Shannon):
        return -family.tau * log_n
    if isinstance(family, Nath):
        if family.alpha == 1.0:
            return -family.tau * log_n
        return (log_n - family.alpha * log_n) / family.lam
    if isinstance(family, GeneralEscort):
        return -family.tau * log_n
    if isinstance(family, HCT):
        try:
            zpow = (1.0 / n) ** (family.tau * family.lam)
        except OverflowError as exc:
            raise Overflow(f"uniform trace overflowed at log2(n) = {log_n!r}") from exc
        return (zpow - 1.0) / family.lam
    raise TypeError(f"unknown entropy family {family!r}")
