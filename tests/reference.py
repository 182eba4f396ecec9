"""Independent high-precision reference implementations.

Everything here is transcribed directly from the closed-form definitions
into 50-digit mpmath arithmetic and shares no code path with the package:
escort weights are plain power ratios, power sums are unfactored, and the
conditional mean uses the canonical generator 2**(lam*x).  Agreement with
the package is therefore a genuine dual-route check, and the frozen
literals in the test modules were produced by these functions.
"""

from __future__ import annotations

from mpmath import fsum, log, mp, mpf, power

from gentropies import HCT, GeneralEscort, Nath, Shannon

mp.dps = 50


def _log2(x):
    return log(x, 2)


def _power_sum(probs, a):
    return fsum(power(p, a) for p in probs if p > 0)


def _escort(probs, a):
    weights = [power(p, a) if p > 0 else mpf(0) for p in probs]
    total = fsum(weights)
    return [w / total for w in weights]


def _entropy_mp(family, probs):
    if isinstance(family, Shannon):
        return mpf(family.tau) * fsum(p * _log2(p) for p in probs if p > 0)
    if isinstance(family, Nath):
        if family.alpha == 1.0:
            return mpf(family.tau) * fsum(p * _log2(p) for p in probs if p > 0)
        return _log2(_power_sum(probs, mpf(family.alpha))) / mpf(family.lam)
    if isinstance(family, GeneralEscort):
        alpha, tau, lam = mpf(family.alpha), mpf(family.tau), mpf(family.lam)
        if family.lam == 0.0:
            weights = _escort(probs, alpha)
            return tau * fsum(w * _log2(p) for w, p in zip(weights, probs) if p > 0)
        beta = alpha - tau * lam
        return -_log2(_power_sum(probs, beta) / _power_sum(probs, alpha)) / lam
    if isinstance(family, HCT):
        return (_power_sum(probs, mpf(family.alpha)) - 1) / mpf(family.lam)
    raise TypeError(f"unknown family {family!r}")


def ref_entropy(family, probs) -> float:
    return float(_entropy_mp(family, [mpf(p) for p in probs]))


def ref_conditional_entropy(family, rows) -> float:
    rows = [[mpf(v) for v in row] for row in rows]
    total = fsum(v for row in rows for v in row)
    rows = [[v / total for v in row] for row in rows]
    marg = [fsum(row) for row in rows]
    alpha = mpf(1) if isinstance(family, Shannon) else mpf(family.alpha)
    weights = _escort(marg, alpha)
    terms = [
        (w, _entropy_mp(family, [v / p for v in row]))
        for w, p, row in zip(weights, marg, rows)
        if p > 0
    ]
    uses_exponential = (
        isinstance(family, Nath)
        and family.alpha != 1.0
        or isinstance(family, GeneralEscort)
        and family.lam != 0.0
    )
    if uses_exponential:
        lam = mpf(family.lam)
        acc = fsum(w * power(2, lam * v) for w, v in terms)
        return float(_log2(acc) / lam)
    return float(fsum(w * v for w, v in terms))


def ref_joint_entropy(family, rows) -> float:
    flat = [mpf(v) for row in rows for v in row]
    total = fsum(flat)
    return float(_entropy_mp(family, [v / total for v in flat]))


def ref_quasi_mean_exponential(kappa, gamma, shift, weights, values) -> float:
    kappa, gamma, shift = mpf(kappa), mpf(gamma), mpf(shift)
    acc = fsum(
        mpf(w) * (power(2, kappa * (mpf(v) + shift)) - 1) / gamma
        for w, v in zip(weights, values)
        if w > 0
    )
    return float(_log2(gamma * acc + 1) / kappa - shift)


def ref_quasi_mean_linear(c, shift, weights, values) -> float:
    c, shift = mpf(c), mpf(shift)
    acc = fsum(mpf(w) * (-c * (mpf(v) + shift)) for w, v in zip(weights, values) if w > 0)
    return float(-acc / c - shift)


def ref_exp_coordinate(x, rate, scale) -> float:
    """(2**(rate*x) - 1)/scale: `Deformation.h` and `ExponentialGenerator.evaluate`."""
    return float((power(2, mpf(rate) * mpf(x)) - 1) / mpf(scale))


def ref_log_coordinate(y, rate, scale) -> float:
    """log2(scale*y + 1)/rate: `Deformation.h_inv` and `ExponentialGenerator.invert`."""
    return float(_log2(mpf(scale) * mpf(y) + 1) / mpf(rate))
