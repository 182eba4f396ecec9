"""Stable numeric kernels shared by the distribution and entropy layers.

The kernels take float64 ndarrays.  Every sum is correctly rounded, equal
to ``math.fsum`` bit for bit (see `exact_sum`), so results do not depend on
the order of the input terms.  Power sums are max-factored in log2 space,
which keeps them finite for exponents far beyond the naive overflow point.

The power, log and escort kernels and `segment_sums` are span kernels: they
take one flat array plus a list of ``(start, stop)`` spans and return one
result per span (`escort_weights` returns one array, normalized within each
span).  A single distribution is the one-span case; a joint's rows, or
every trial of the axiom suite, are many spans of one array.  Each span
takes its branch by its own length, and gets the bits it would get alone:

- below ``_VECTOR_MIN`` entries, a Python loop over libm, which beats
  numpy's per-call overhead on tiny inputs (spans that are short on average
  share one ``tolist()`` of the whole array);
- at and above it, numpy, over the cells of all such spans at once: the
  elementwise functions give the same bits on a slice as on a whole array,
  ``np.maximum.reduceat`` takes the per-span maxima, and one segmented
  exact sum (`_segment_fsum`) rounds every span's total.

numpy's log2/exp2/power may differ from the libm functions by an ulp per
term, so the two branches agree to a few ulps, not bit for bit.
``_VECTOR_MIN`` is the library's only size switch between two arithmetics:
validation and every layer above take one path at every size
(``_BINNED_MIN`` only picks how `exact_sum` reaches the same bits).
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, Iterator, Sequence

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
# Clears the sign bit.
_ABS_MASK = np.int64(2 ** 63 - 1)
# Each bin adds at most this many halves of at most 27 bits: every partial
# sum stays an integer multiple of the bin's unit below 2**53, so it is exact.
_BIN_CHUNK = 2 ** 26
# A segmented sum keys at most this many (segment, exponent) bins at once,
# which bounds its tables (32 MB with both halves) whatever the exponent range
# of the terms.
_TABLE_BINS = 2 ** 20


def exact_sum(values) -> float:
    """Correctly rounded sum of floats, equal to ``math.fsum`` bit for bit.

    A float64 ndarray of ``_BINNED_MIN`` entries or more is summed without
    leaving numpy, by exponent-binned accumulation (after Neal, "Fast exact
    summation using small and large superaccumulators", 2015): each entry
    splits into a high half (the sign, exponent and top 26 mantissa bits)
    and the exact remainder, the halves are totalled per binary exponent
    with ``bincount`` (exact, see ``_BIN_CHUNK``), and ``math.fsum`` rounds
    the few thousand bin totals once.  Non-finite or huge entries (see
    ``_BINNED_EXP_CAP``), and every other input, go to ``math.fsum``
    directly, so its inf/nan/overflow behaviour is kept.  `_segment_fsum`
    sums many segments of one array the same way.
    """
    if type(values) is not np.ndarray:
        return math.fsum(values)
    if len(values) < _BINNED_MIN or values.dtype != np.float64:
        return math.fsum(values.tolist())
    bits = values.view(np.int64)
    exps = bits >> 52
    exps &= 0x7FF
    if exps.max() >= _BINNED_EXP_CAP:
        return math.fsum(values.tolist())
    half = (bits & _HIGH_MASK).view(np.float64)  # the high halves, then the low ones
    chunks = [slice(i, i + _BIN_CHUNK) for i in range(0, values.size, _BIN_CHUNK)]
    totals = [np.bincount(exps[c], weights=half[c]) for c in chunks]
    np.subtract(values, half, out=half)
    totals = np.concatenate(totals + [np.bincount(exps[c], weights=half[c]) for c in chunks])
    return math.fsum(totals[totals != 0.0].tolist())


def _segment_fsum(values: np.ndarray, counts: Sequence[int]) -> list[float]:
    """``math.fsum`` of each run of ``counts[k]`` consecutive ``values``, bit for bit.

    `exact_sum`'s binned sum over all segments at once.  Each half is
    totalled by one ``bincount`` keyed by segment and exponent, over the
    exponents from the smallest nonzero entry's to the largest (zeros join
    the lowest bin), and ``math.fsum`` rounds each segment's nonzero bin
    totals.  A chunk of at most ``_BIN_CHUNK`` entries and ``_TABLE_BINS``
    bins goes to each ``bincount``; a segment may run over several chunks.
    One segment is summed by `exact_sum`, and so is every segment when
    some entry is inf, nan or at least 2**961 in magnitude, in order, so an
    error is the one the first such segment raises.
    """
    if len(counts) == 1:
        return [exact_sum(values)]
    if not values.size:
        return [0.0] * len(counts)
    ends = list(itertools.accumulate(counts))
    bits = values.view(np.int64)
    keys = bits & _ABS_MASK  # the magnitudes' bits, then the keys
    top, bottom = int(keys.max()), int(keys.min())
    if top >> 52 >= _BINNED_EXP_CAP:
        return [exact_sum(values[i:j]) for i, j in zip([0, *ends], ends)]
    zeros = bottom == 0
    if zeros:  # the smallest nonzero magnitude: zeros wrap round to the top
        keys -= 1
        bottom = int(keys.view(np.uint64).min()) + 1
        keys += 1
    top, low_exp = top >> 52, min(bottom >> 52, top >> 52)
    width = top - low_exp + 1
    keys >>= 52
    if zeros:
        np.maximum(keys, low_exp, out=keys)
    buffer = np.repeat(np.arange(-low_exp, len(counts) * width - low_exp, width), counts)
    keys += buffer
    n = len(values)
    group = max(1, _TABLE_BINS // width)  # segments per chunk
    cuts = sorted({*range(0, n, _BIN_CHUNK), *(i for i in [0, *ends][::group] if i < n)})
    nonzero_bins = np.zeros(len(counts), dtype=np.intp)
    totals = []
    for i, j in zip(cuts, [*cuts[1:], n]):
        first, last = bisect.bisect_right(ends, i), bisect.bisect_right(ends, j - 1)
        chunk = keys[i:j] - first * width if first else keys[i:j]
        size = (last - first + 1) * width
        half = np.bitwise_and(bits[i:j], _HIGH_MASK, out=buffer[:j - i]).view(np.float64)
        high = np.bincount(chunk, weights=half, minlength=size)
        np.subtract(values[i:j], half, out=half)
        low = np.bincount(chunk, weights=half, minlength=size)
        # row k: segment first + k, its high-half bins then its low-half bins
        table = np.concatenate([high.reshape(-1, width), low.reshape(-1, width)], axis=1)
        nonzero = table != 0.0
        nonzero_bins[first:last + 1] += nonzero.sum(axis=1)
        totals += table[nonzero].tolist()
    fsum = math.fsum
    bounds = [0, *itertools.accumulate(nonzero_bins.tolist())]
    return [fsum(totals[i:j]) for i, j in itertools.pairwise(bounds)]


def _where(spans: Spans) -> slice | np.ndarray:
    """The positions of the entries of ``spans``, end to end: a slice when
    the spans are contiguous, else an index array."""
    if all(a[1] == b[0] for a, b in itertools.pairwise(spans)):
        return slice(spans[0][0], spans[-1][1]) if spans else slice(0, 0)
    starts, stops = np.array(spans, dtype=np.intp).T
    lengths = stops - starts
    # entry e of span k sits at starts[k] + e - (where span k starts end to end)
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def span_cells(values: np.ndarray, spans: Spans) -> np.ndarray:
    """The entries of ``spans`` end to end: a view when the spans are contiguous."""
    return values[_where(spans)]


def _starts(counts: Sequence[int]) -> list[int]:
    """Where each run of ``counts[k]`` consecutive entries starts."""
    return [0, *itertools.accumulate(counts[:-1])]


def _long_cells(flat: np.ndarray, spans: Spans):
    """The positive entries of ``spans`` end to end, for the long branch.

    Returns the positions of the spans' entries (see `_where`), the positive
    entries, the mask of the positive ones among all (``None`` when every
    entry is positive, which spares the compress) and the count per span.
    """
    where = _where(spans)
    x = flat[where]
    counts = [j - i for i, j in spans]
    pos = x > 0.0
    if np.count_nonzero(pos) == len(pos):
        return where, x, None, counts
    return where, x[pos], pos, np.add.reduceat(pos, _starts(counts), dtype=np.intp).tolist()


def _spread(per_span: np.ndarray, counts: list[int]):
    """``per_span[k]`` repeated ``counts[k]`` times (a scalar for one span)."""
    return per_span[0] if len(counts) == 1 else np.repeat(per_span, counts)


def _scaled_powers(x: np.ndarray, counts: list[int], alpha: float):
    """Per span the largest t = alpha * log2(x), m, and every 2**(t - m),
    computed in place in one buffer.  Every span needs an entry."""
    if 0 in counts:
        raise ValueError("every span needs a positive entry")
    t = np.log2(x)
    t *= alpha
    m = np.maximum.reduceat(t, _starts(counts))
    t -= _spread(m, counts)
    return m, np.exp2(t, out=t)


def _lists(values: np.ndarray, spans: Spans) -> Iterator[list[float]]:
    """Each span's entries as a list, for the short branch.

    The lists are slices of one shared ``tolist()`` when the spans average
    fewer than ``_VECTOR_MIN`` entries of ``values``, so many tiny spans
    cost one conversion; otherwise each span converts only its own slice.
    """
    shared = values.tolist() if len(values) < _VECTOR_MIN * len(spans) else None
    for i, j in spans:
        yield shared[i:j] if shared is not None else values[i:j].tolist()


def _split(spans: Spans) -> tuple[Spans, Spans]:
    """The spans below ``_VECTOR_MIN`` entries and the others, each in order."""
    shorts = [s for s in spans if s[1] - s[0] < _VECTOR_MIN]
    if len(shorts) == len(spans):
        return spans, []
    return shorts, [s for s in spans if s[1] - s[0] >= _VECTOR_MIN]


def _span_map(spans: Spans, short: Callable[[Spans], list], long: Callable[[Spans], list]) -> list:
    """One result per span, in span order: ``short`` maps the spans below
    ``_VECTOR_MIN`` entries to their results, ``long`` all the others.

    An error is the one that the first failing span raises alone.
    """
    shorts, longs = _split(spans)
    if not longs:
        return short(spans)
    if not shorts:
        return long(spans)
    try:
        short_results, long_results = iter(short(shorts)), iter(long(longs))
    except (OverflowError, ValueError):
        for span in spans:
            (short if span[1] - span[0] < _VECTOR_MIN else long)([span])
        raise
    return [next(long_results) if j - i >= _VECTOR_MIN else next(short_results) for i, j in spans]


def segment_sums(values: np.ndarray, bounds: Sequence[int]) -> list[float]:
    """Exact sums of ``values[bounds[k]:bounds[k + 1]]`` for every k."""
    return _span_map(
        list(itertools.pairwise(bounds)),
        lambda spans: [math.fsum(part) for part in _lists(values, spans)],
        lambda spans: _segment_fsum(span_cells(values, spans), [j - i for i, j in spans]),
    )


# The loops below build lists for math.fsum: faster than generators, same sums.


def log2_power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, log2 of sum_k p_k**alpha over its positive entries.

    Factoring out the largest term keeps every intermediate in [0, 1], so
    the result is finite for |alpha| up to several hundred.  Every span
    needs a positive entry.
    """
    log2 = math.log2

    def short(spans):
        out = []
        for part in _lists(flat, spans):
            logs = [alpha * log2(p) for p in part if p > 0.0]
            m = max(logs)
            out.append(m + log2(math.fsum([2.0 ** (t - m) for t in logs])))
        return out

    def long(spans):
        _, x, _, counts = _long_cells(flat, spans)
        m, terms = _scaled_powers(x, counts, alpha)
        return [a + log2(s) for a, s in zip(m.tolist(), _segment_fsum(terms, counts))]

    return _span_map(spans, short, long)


def power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, sum_k p_k**alpha over positive entries (0**alpha := 0 for alpha > 0)."""

    def short(spans):
        return [math.fsum([p ** alpha for p in part if p > 0.0]) for part in _lists(flat, spans)]

    def long(spans):
        _, x, _, counts = _long_cells(flat, spans)
        return _segment_fsum(np.power(x, alpha), counts)

    try:
        return _span_map(spans, short, long)
    except OverflowError as exc:
        raise Overflow(f"power sum with exponent {alpha!r} overflowed") from exc


def plogp_sum(flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k p_k * log2(p_k) over positive entries (0*log 0 := 0)."""
    log2 = math.log2

    def short(spans):
        return [math.fsum([p * log2(p) for p in part if p > 0.0]) for part in _lists(flat, spans)]

    def long(spans):
        _, x, _, counts = _long_cells(flat, spans)
        terms = np.log2(x)
        terms *= x
        return _segment_fsum(terms, counts)

    return _span_map(spans, short, long)


def weighted_log2_sum(weights: np.ndarray, flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k w_k * log2(p_k) over the positive entries p_k of ``flat``."""
    log2 = math.log2

    def short(spans):
        return [
            math.fsum([w * log2(p) for w, p in zip(ws, ps) if p > 0.0])
            for ws, ps in zip(_lists(weights, spans), _lists(flat, spans))
        ]

    def long(spans):
        where, x, pos, counts = _long_cells(flat, spans)
        w = weights[where]
        terms = np.log2(x)
        terms *= w if pos is None else w[pos]
        return _segment_fsum(terms, counts)

    return _span_map(spans, short, long)


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
    out = np.zeros(len(flat))
    shorts, longs = _split(spans)
    if shorts:
        weights = []  # the short spans' weights end to end, written at once
        for part in _lists(flat, shorts):
            pos = [p for p in part if p > 0.0]
            logs = [alpha * log2(p) for p in pos]
            m = max(logs)
            scaled = [2.0 ** (t - m) for t in logs]
            total = math.fsum(scaled)
            ws = [w / total for w in scaled]
            if len(pos) < len(part):  # zero weights back in place
                it = iter(ws)
                ws = [next(it) if p > 0.0 else 0.0 for p in part]
            weights += ws
        out[_where(shorts)] = weights
    if longs:
        where, x, pos, counts = _long_cells(flat, longs)
        w = _scaled_powers(x, counts, alpha)[1]
        w /= _spread(np.array(_segment_fsum(w, counts)), counts)
        if pos is not None:  # zero weights back in place
            full = np.zeros(pos.size)
            full[pos] = w
            w = full
        out[where] = w
    return out
