"""Per-span references for the span kernels, in plain Python over libm.

Each function is the per-span loop over libm (``math.log2``, float ``**``,
``math.expm1``) and ``math.fsum``: an arithmetic independent of the
package's, which takes numpy's log2, exp2 and power.  Those may differ from
libm's in the last bit of a term, so the kernels agree with these loops to a
few ulps, not bit for bit.  ``weighted_mean`` is the quasi-linear mean with
one ``expm1`` per term, which the package's exponential coordinate also
takes from libm, so there the bits agree.
"""

from __future__ import annotations

import math

import numpy as np

from gentropies.errors import Overflow
from gentropies.generators import ExponentialGenerator

_LN2 = math.log(2.0)


def log2_power_sum(part, alpha):
    logs = [alpha * math.log2(p) for p in part if p > 0.0]
    m = max(logs)
    return m + math.log2(math.fsum([2.0 ** (t - m) for t in logs]))


def power_sum(part, alpha):
    try:
        return math.fsum([p ** alpha for p in part if p > 0.0])
    except OverflowError as exc:
        raise OverflowError(f"power sum with exponent {alpha!r} overflowed") from exc


def plogp_sum(part):
    return math.fsum([p * math.log2(p) for p in part if p > 0.0])


def escort_weights(part, alpha):
    logs = [alpha * math.log2(p) for p in part if p > 0.0]
    m = max(logs)
    scaled = [2.0 ** (t - m) for t in logs]
    total = math.fsum(scaled)
    weights = iter([w / total for w in scaled])
    return [next(weights) if p > 0.0 else 0.0 for p in part]


def weighted_log2_sum(part, alpha):
    weights = escort_weights(part, alpha)
    return math.fsum([w * math.log2(p) for w, p in zip(weights, part) if p > 0.0])


def evaluate(generator, x):
    """g(x) with one expm1 for an exponential generator; where expm1 leaves the
    float range, 2**e/gamma as 2**(e mod 1)/gamma times 2**floor(e).  A result
    past the float range raises `Overflow`."""
    if not isinstance(generator, ExponentialGenerator):
        return generator.evaluate(x)
    e = generator.kappa * (x + generator.shift)
    try:
        grown = math.expm1(_LN2 * generator.kappa * (x + generator.shift)) / generator.gamma
    except OverflowError:  # 2**e past the range, 2**e/gamma maybe not (|gamma| > 1)
        try:
            grown = math.ldexp(2.0 ** (e % 1.0) / generator.gamma, math.floor(e))
        except OverflowError:
            grown = math.inf
    if math.isinf(grown):
        raise Overflow(f"generator exponent {e!r} overflowed")
    return grown


def weighted_mean(generator, terms):
    try:
        acc = math.fsum([w * evaluate(generator, v) for w, v in terms])
    except OverflowError as exc:
        raise Overflow("weighted sum of generator values overflowed") from exc
    weights, values = np.array(terms, dtype=np.float64).reshape(-1, 2).T
    return generator.invert_mean(acc, weights, values)
