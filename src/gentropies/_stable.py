"""Stable numeric kernels shared by the distribution and entropy layers.

The kernels take float64 ndarrays.  Every sum is correctly rounded (see
`exact_sum`), so results do not depend on the order of the input terms.
Power sums are max-factored in log2 space, which keeps them finite for
exponents far beyond the naive overflow point.

The power, log and escort kernels are span kernels: they take one flat
array plus a list of ``(start, stop)`` spans and return one result per span
(`escort_weights` returns one array, normalized within each span).  A
single distribution is the one-span case; a joint's rows, or every trial
of the axiom suite, are many spans of one array.  Each span takes its
branch by its own length, so it gets the same bits as it would alone:
below ``_VECTOR_MIN`` entries a Python loop over libm, which beats numpy's
per-call overhead on tiny inputs (spans that are short on average share
one ``tolist()`` of the whole array); at and above it numpy on the span's
slice.  numpy's log2/exp2/power may differ from the libm functions by an
ulp per term, so the two branches agree to a few ulps, not bit for bit.

``_VECTOR_MIN`` is the library's only size switch between two arithmetics:
validation, `segment_sums` and every layer above take one path at every
size (``_BINNED_MIN`` only picks how `exact_sum` reaches the same bits).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import Overflow

#: (start, stop) index pairs into a flat array, one per segment.
Spans = Sequence[tuple[int, int]]

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


def _pieces(
    values: np.ndarray, spans: Spans, short_below: int
) -> Iterator[list[float] | np.ndarray]:
    """Each span's entries: a list below ``short_below`` entries, else an array view.

    The lists are slices of one shared ``tolist()`` when the spans average
    fewer than ``short_below`` entries, so many tiny spans cost one
    conversion; otherwise each short span converts only its own slice.
    """
    shared = values.tolist() if len(values) < short_below * len(spans) else None
    for i, j in spans:
        if j - i >= short_below:
            yield values[i:j]
        elif shared is not None:
            yield shared[i:j]
        else:
            yield values[i:j].tolist()


def segment_sums(values: np.ndarray, bounds: Sequence[int]) -> list[float]:
    """Exact sums of ``values[bounds[k]:bounds[k + 1]]`` for every k."""
    spans = list(itertools.pairwise(bounds))
    return [exact_sum(part) for part in _pieces(values, spans, _BINNED_MIN)]


# The loops below build lists for math.fsum: faster than generators, same sums.


def log2_power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, log2 of sum_k p_k**alpha over its positive entries.

    Factoring out the largest term keeps every intermediate in [0, 1], so
    the result is finite for |alpha| up to several hundred.  Every span
    needs a positive entry.
    """
    log2 = math.log2
    out = []
    for part in _pieces(flat, spans, _VECTOR_MIN):
        if type(part) is list:
            logs = [alpha * log2(p) for p in part if p > 0.0]
            m = max(logs)
            s = math.fsum([2.0 ** (t - m) for t in logs])
        else:
            t = alpha * np.log2(part[part > 0.0])
            m = float(t.max())
            s = exact_sum(np.exp2(t - m))
        out.append(m + log2(s))
    return out


def power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, sum_k p_k**alpha over positive entries (0**alpha := 0 for alpha > 0)."""
    try:
        return [
            math.fsum([p ** alpha for p in part if p > 0.0])
            if type(part) is list
            else exact_sum(np.power(part[part > 0.0], alpha))
            for part in _pieces(flat, spans, _VECTOR_MIN)
        ]
    except OverflowError as exc:
        raise Overflow(f"power sum with exponent {alpha!r} overflowed") from exc


def plogp_sum(flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k p_k * log2(p_k) over positive entries (0*log 0 := 0)."""
    log2 = math.log2
    out = []
    for part in _pieces(flat, spans, _VECTOR_MIN):
        if type(part) is list:
            out.append(math.fsum([p * log2(p) for p in part if p > 0.0]))
        else:
            pos = part[part > 0.0]
            out.append(exact_sum(pos * np.log2(pos)))
    return out


def weighted_log2_sum(weights: np.ndarray, flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k w_k * log2(p_k) over the positive entries p_k of ``flat``."""
    log2 = math.log2
    out = []
    for ws, ps in zip(_pieces(weights, spans, _VECTOR_MIN), _pieces(flat, spans, _VECTOR_MIN)):
        if type(ps) is list:
            out.append(math.fsum([w * log2(p) for w, p in zip(ws, ps) if p > 0.0]))
        else:
            mask = ps > 0.0
            out.append(exact_sum(ws[mask] * np.log2(ps[mask])))
    return out


def escort_weights(flat: np.ndarray, spans: Spans, alpha: float) -> np.ndarray:
    """Weights p_k**alpha / sum_i p_i**alpha, normalized within each span, max-factored.

    Zero entries keep weight exactly 0 (valid only for alpha > 0; callers
    enforce positivity of the input when alpha <= 0), and so do entries
    outside every span.  ``alpha == 1`` returns the input unchanged, so the
    identity holds exactly.
    """
    if alpha == 1.0:
        return flat
    log2 = math.log2
    n = len(flat)
    # many short spans fill one list, converted once at the end
    out = [0.0] * n if n < _VECTOR_MIN * len(spans) else np.zeros(n)
    longs = []
    for (i, j), part in zip(spans, _pieces(flat, spans, _VECTOR_MIN)):
        if type(part) is list:
            pos = [p for p in part if p > 0.0]
            logs = [alpha * log2(p) for p in pos]
            m = max(logs)
            scaled = [2.0 ** (t - m) for t in logs]
            total = math.fsum(scaled)
            weights = [w / total for w in scaled]
            if len(pos) < len(part):  # zero weights back in place
                it = iter(weights)
                weights = [next(it) if p > 0.0 else 0.0 for p in part]
            out[i:j] = weights
        else:
            mask = part > 0.0
            t = alpha * np.log2(part[mask])
            w = np.exp2(t - t.max())
            longs.append((i, j, mask, w / exact_sum(w)))
    out = np.asarray(out, dtype=np.float64)
    for i, j, mask, w in longs:
        out[i:j][mask] = w
    return out
