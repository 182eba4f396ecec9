"""Stable numeric kernels shared by the distribution and entropy layers.

The kernels take float64 ndarrays.  Every sum is correctly rounded (see
`exact_sum`), so results do not depend on the order of the input terms.
Power sums are max-factored in log2 space, which keeps them finite for
exponents far beyond the naive overflow point.

Below ``_VECTOR_MIN`` entries the power, log and escort kernels loop in
Python over ``tolist()``, which beats numpy's per-call overhead on the many
tiny inputs of the axiom suite; at and above it they run in numpy.  numpy's
log2/exp2/power may differ from the libm functions by an ulp per term, so
the two branches agree to a few ulps, not bit for bit.

``_VECTOR_MIN`` is the library's only size switch between two arithmetics:
validation, `segment_sums` and every layer above take one path at every
size (``_BINNED_MIN`` only picks how `exact_sum` reaches the same bits).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import Overflow

# Below this length plain Python loops beat numpy's per-call overhead.
_VECTOR_MIN = 256

# Below this length math.fsum over tolist() beats the binned sum: both take
# 20-30 us at 512-640 entries, the binned sum wins from about 768 on and is
# 1.7x faster at 1024.
_BINNED_MIN = 768
# Binned sums start at this biased exponent (|x| >= 2**961), and at inf/nan:
# there math.fsum decides (it may overflow an intermediate or meet inf - inf).
_BINNED_EXP_CAP = 1023 + 961
# Clears the low 26 of the 52 stored mantissa bits.
_HIGH_MASK = ~np.int64(2 ** 26 - 1)
# Each bin adds at most this many halves of at most 27 bits: every partial
# sum stays an integer multiple of the bin's unit below 2**53, so it is exact.
_BIN_CHUNK = 2 ** 26


def exact_sum(values) -> float:
    """Correctly rounded sum of floats, equal to ``math.fsum`` bit for bit.

    A float64 ndarray of ``_BINNED_MIN`` entries or more is summed without
    leaving numpy, by exponent-binned accumulation (after Neal, "Fast exact
    summation using small and large superaccumulators", 2015): each entry
    splits into a high half (the sign, exponent and top 26 mantissa bits)
    and the exact remainder, the halves are totalled per binary exponent
    with ``bincount`` (exact, see ``_BIN_CHUNK``), and ``math.fsum`` rounds
    the few thousand bin totals once.  Non-finite or huge entries, and everything else, go to
    ``math.fsum`` directly, so its inf/nan/overflow behaviour is kept.
    """
    if type(values) is not np.ndarray:
        return math.fsum(values)
    if len(values) < _BINNED_MIN or values.dtype != np.float64:
        return math.fsum(values.tolist())
    bits = values.view(np.int64)
    exps = (bits >> 52) & 0x7FF
    if exps.max() >= _BINNED_EXP_CAP:
        return math.fsum(values.tolist())
    high = (bits & _HIGH_MASK).view(np.float64)
    low = values - high
    totals = np.concatenate([
        np.bincount(exps[i:i + _BIN_CHUNK], weights=half[i:i + _BIN_CHUNK])
        for half in (high, low)
        for i in range(0, values.size, _BIN_CHUNK)
    ])
    return math.fsum(totals[totals != 0.0].tolist())


def segment_sums(values: np.ndarray, bounds: Sequence[int]) -> list[float]:
    """Exact sums of ``values[bounds[k]:bounds[k + 1]]`` for every k."""
    return [exact_sum(values[i:j]) for i, j in itertools.pairwise(bounds)]


def log2_power_sum(probs: np.ndarray, alpha: float) -> float:
    """log2 of sum_k p_k**alpha over the positive entries of ``probs``.

    Factoring out the largest term keeps every intermediate in [0, 1], so
    the result is finite for |alpha| up to several hundred.  At least one
    entry must be positive.
    """
    if len(probs) >= _VECTOR_MIN:
        t = alpha * np.log2(probs[probs > 0.0])
        m = float(t.max())
        s = exact_sum(np.exp2(t - m))
    else:
        logs = [alpha * math.log2(p) for p in probs.tolist() if p > 0.0]
        m = max(logs)
        s = math.fsum(2.0 ** (t - m) for t in logs)
    return m + math.log2(s)


def power_sum(probs: np.ndarray, alpha: float) -> float:
    """sum_k p_k**alpha over positive entries (0**alpha := 0 for alpha > 0)."""
    try:
        if len(probs) >= _VECTOR_MIN:
            return exact_sum(np.power(probs[probs > 0.0], alpha))
        return math.fsum(p ** alpha for p in probs.tolist() if p > 0.0)
    except OverflowError as exc:
        raise Overflow(f"power sum with exponent {alpha!r} overflowed") from exc


def plogp_sum(probs: np.ndarray) -> float:
    """sum_k p_k * log2(p_k) over positive entries (0*log 0 := 0)."""
    if len(probs) >= _VECTOR_MIN:
        pos = probs[probs > 0.0]
        return exact_sum(pos * np.log2(pos))
    return math.fsum(p * math.log2(p) for p in probs.tolist() if p > 0.0)


def weighted_log2_sum(weights: np.ndarray, probs: np.ndarray) -> float:
    """sum_k w_k * log2(p_k) over the positive entries of ``probs``."""
    if len(probs) >= _VECTOR_MIN:
        mask = probs > 0.0
        return exact_sum(weights[mask] * np.log2(probs[mask]))
    return math.fsum(
        w * math.log2(p) for w, p in zip(weights.tolist(), probs.tolist()) if p > 0.0
    )


def escort_weights(probs: np.ndarray, alpha: float) -> np.ndarray:
    """Normalized weights p_k**alpha / sum_i p_i**alpha, max-factored.

    Zero entries keep weight exactly 0 (valid only for alpha > 0; callers
    enforce positivity of the input when alpha <= 0).  ``alpha == 1``
    returns the input unchanged, so the identity holds exactly.
    """
    if alpha == 1.0:
        return probs
    n = len(probs)
    if n >= _VECTOR_MIN:
        out = np.zeros(n)
        mask = probs > 0.0
        t = alpha * np.log2(probs[mask])
        w = np.exp2(t - t.max())
        out[mask] = w / exact_sum(w)
        return out
    indexed = [(i, alpha * math.log2(p)) for i, p in enumerate(probs.tolist()) if p > 0.0]
    m = max(t for _, t in indexed)
    scaled = [(i, 2.0 ** (t - m)) for i, t in indexed]
    total = math.fsum(w for _, w in scaled)
    out_list = [0.0] * n
    for i, w in scaled:
        out_list[i] = w / total
    return np.array(out_list)
