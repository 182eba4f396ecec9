"""Stable numeric kernels shared by the distribution and entropy layers.

The kernels take float64 ndarrays.  Every sum is correctly rounded, equal
to ``math.fsum`` bit for bit (see `exact_sum`), so results do not depend on
the order of the input terms.  Power sums are max-factored in log2 space,
which keeps them finite for exponents far beyond the naive overflow point.

The power, log and escort kernels and `segment_sums` are span kernels: they
take one flat array plus ``(start, stop)`` spans and return one result per
span (`escort_weights` returns one array, normalized within each span).  A
single distribution is the one-span case; a joint's rows, or every trial of
the axiom suite, are many spans of one array.  Each span takes its branch
by its own length, and gets the bits it would get alone.  A branch takes
all of its spans at once: one pass over their positive entries, per-span
maxima from ``np.maximum.reduceat`` (exact), and the basic operations
(``alpha * t``, ``t - m``, ``w / total``) in numpy, which rounds them as
Python does.  The branches differ only in their transcendentals and their
final sums:

- below ``_VECTOR_MIN`` entries, libm: one C-level ``map`` of ``math.log2``
  or float ``**`` over the cells of all such spans, and ``math.fsum`` over
  each span's slice of one list, which beat numpy's per-call overhead and
  binning on tiny spans;
- at and above it, numpy's log2/exp2/power and one segmented exact sum
  (`_segment_fsum`).

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
from typing import Callable, Sequence, Union

import numpy as np

from .errors import Overflow

#: (start, stop) index pairs into a flat array, one per segment: a sequence
#: of pairs or an ``(n, 2)`` integer array.
Spans = Union[Sequence[tuple[int, int]], np.ndarray]

# Below this length libm over Python floats beats numpy's per-call overhead.
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


def spans_of(bounds: Sequence[int]) -> np.ndarray:
    """The spans between consecutive ``bounds``, as an ``(n, 2)`` intp array."""
    bounds = np.asarray(bounds, dtype=np.intp)
    return np.array((bounds[:-1], bounds[1:])).T


def _span_array(spans: Spans) -> np.ndarray:
    """``spans`` as an ``(n, 2)`` intp array of starts and stops."""
    if isinstance(spans, np.ndarray):
        return spans
    pairs = itertools.chain.from_iterable(spans)
    return np.fromiter(pairs, np.intp, 2 * len(spans)).reshape(-1, 2)


def _where(spans: np.ndarray) -> slice | np.ndarray:
    """The positions of the entries of ``spans``, end to end: a slice when
    the spans are contiguous (or fewer than two), else an index array."""
    if len(spans) < 2 or not np.count_nonzero(spans[1:, 0] - spans[:-1, 1]):
        return slice(int(spans[0, 0]), int(spans[-1, 1])) if len(spans) else slice(0, 0)
    starts, stops = spans.T
    lengths = stops - starts
    # entry e of span k sits at starts[k] + e - (where span k starts end to end)
    return np.arange(lengths.sum()) + np.repeat(starts - lengths.cumsum() + lengths, lengths)


def span_cells(values: np.ndarray, spans: Spans) -> np.ndarray:
    """The entries of ``spans`` end to end: a view when the spans are contiguous."""
    return values[_where(_span_array(spans))]


def _cells(flat: np.ndarray, spans: np.ndarray):
    """The positive entries of ``spans`` end to end.

    Returns the positions of the spans' entries (see `_where`), the positive
    entries, the mask of the positive ones among all (``None`` when every
    entry is positive, which spares the compress) and the count per span.
    """
    where = _where(spans)
    x = flat[where]
    counts = spans[:, 1] - spans[:, 0]
    pos = x > 0.0
    if np.count_nonzero(pos) == len(pos):
        return where, x, None, counts
    # reduceat over the spans that have entries (it misreads empty ones)
    nonempty = np.flatnonzero(counts)
    positives = np.zeros_like(counts)
    positives[nonempty] = np.add.reduceat(pos, (counts.cumsum() - counts)[nonempty], dtype=np.intp)
    return where, x[pos], pos, positives


def _libm(fn: Callable[..., float], x: np.ndarray, *args) -> np.ndarray:
    """``fn`` of every entry of ``x`` (and of ``args``) over Python floats:
    libm in one C-level map, which beats numpy's per-call overhead on tiny
    inputs.  The transcendentals below take it for a short group of spans,
    and numpy for a long one."""
    return np.fromiter(map(fn, x.tolist(), *args), np.float64, len(x))


def _log2(x: np.ndarray, short: bool) -> np.ndarray:
    return _libm(math.log2, x) if short else np.log2(x)


def _exp2(t: np.ndarray, short: bool) -> np.ndarray:  # in place for a long group
    return _libm((2.0).__pow__, t) if short else np.exp2(t, out=t)


def _power(x: np.ndarray, alpha: float, short: bool) -> np.ndarray:
    # float ** raises OverflowError where numpy returns inf
    return _libm(float.__pow__, x, itertools.repeat(alpha)) if short else np.power(x, alpha)


def _sums(terms: np.ndarray, counts: np.ndarray, short: bool) -> list[float]:
    """The exact sum of each run of ``counts[k]`` consecutive ``terms``:
    ``math.fsum`` over each run's slice of one list for a short group, one
    segmented exact sum for a long group."""
    if not short:
        return _segment_fsum(terms, counts.tolist())
    values, fsum = terms.tolist(), math.fsum
    ends = counts.cumsum().tolist()
    return [fsum(values[i:j]) for i, j in zip([0, *ends], ends)]


def _spread(per_span: np.ndarray, counts: np.ndarray):
    """``per_span[k]`` repeated ``counts[k]`` times (a scalar for one span)."""
    return per_span[0] if len(counts) == 1 else np.repeat(per_span, counts)


def _scaled_powers(x: np.ndarray, counts: np.ndarray, alpha: float, short: bool):
    """Per span the largest t = alpha * log2(x), m, and every 2**(t - m).
    Every span needs a positive entry."""
    if np.count_nonzero(counts) < len(counts):
        raise ValueError("every span needs a positive entry")
    t = _log2(x, short)
    t *= alpha
    m = np.maximum.reduceat(t, counts.cumsum() - counts)
    t -= _spread(m, counts)
    return m, _exp2(t, short)


def _span_map(spans: Spans, group: Callable[[np.ndarray, bool], Sequence[float]]) -> list:
    """One result per span, in span order: ``group(spans, short)`` maps a
    group of spans, all below ``_VECTOR_MIN`` entries (``short``) or all at
    or above it, to their results.

    An error is the one that the first failing span raises alone.
    """
    spans = _span_array(spans)
    if not len(spans):
        return []
    short = spans[:, 1] - spans[:, 0] < _VECTOR_MIN
    try:
        if np.count_nonzero(short) in (0, len(spans)):
            return group(spans, bool(short[0]))
        out = np.empty(len(spans))
        out[short] = group(spans[short], True)
        out[~short] = group(spans[~short], False)
        return out.tolist()
    except (OverflowError, ValueError):
        if len(spans) > 1:
            for span, alone in zip(spans, short.tolist()):
                group(span[None], alone)
        raise


def segment_sums(values: np.ndarray, bounds: Sequence[int]) -> list[float]:
    """Exact sums of ``values[bounds[k]:bounds[k + 1]]`` for every k."""
    return _span_map(
        spans_of(bounds),
        lambda spans, short: _sums(values[_where(spans)], spans[:, 1] - spans[:, 0], short),
    )


def log2_power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, log2 of sum_k p_k**alpha over its positive entries.

    Factoring out the largest term keeps every intermediate in [0, 1], so
    the result is finite for |alpha| up to several hundred.  Every span
    needs a positive entry.
    """
    log2 = math.log2

    def group(spans, short):
        _, x, _, counts = _cells(flat, spans)
        m, terms = _scaled_powers(x, counts, alpha, short)
        return [a + log2(s) for a, s in zip(m.tolist(), _sums(terms, counts, short))]

    return _span_map(spans, group)


def power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, sum_k p_k**alpha over positive entries (0**alpha := 0 for alpha > 0)."""

    def group(spans, short):
        _, x, _, counts = _cells(flat, spans)
        return _sums(_power(x, alpha, short), counts, short)

    try:
        return _span_map(spans, group)
    except OverflowError as exc:
        raise Overflow(f"power sum with exponent {alpha!r} overflowed") from exc


def plogp_sum(flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k p_k * log2(p_k) over positive entries (0*log 0 := 0)."""

    def group(spans, short):
        _, x, _, counts = _cells(flat, spans)
        terms = _log2(x, short)
        terms *= x
        return _sums(terms, counts, short)

    return _span_map(spans, group)


def weighted_log2_sum(weights: np.ndarray, flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k w_k * log2(p_k) over the positive entries p_k of ``flat``."""

    def group(spans, short):
        where, x, pos, counts = _cells(flat, spans)
        w = weights[where]
        terms = _log2(x, short)
        terms *= w if pos is None else w[pos]
        return _sums(terms, counts, short)

    return _span_map(spans, group)


def escort_weights(flat: np.ndarray, spans: Spans, alpha: float) -> np.ndarray:
    """Weights p_k**alpha / sum_i p_i**alpha, normalized within each span, max-factored.

    Zero entries keep weight exactly 0 (valid only for alpha > 0; callers
    enforce positivity of the input when alpha <= 0), and so do entries
    outside every span.  ``alpha == 1`` returns the input unchanged, so the
    identity holds exactly.
    """
    if alpha == 1.0:
        return flat
    out = np.zeros(len(flat))

    def group(spans, short):  # writes the weights, returns the totals
        where, x, pos, counts = _cells(flat, spans)
        w = _scaled_powers(x, counts, alpha, short)[1]
        totals = _sums(w, counts, short)
        w /= _spread(np.array(totals), counts)
        if pos is not None:  # zero weights back in place
            full = np.zeros(pos.size)
            full[pos] = w
            w = full
        out[where] = w
        return totals

    _span_map(spans, group)
    return out
