"""Stable numeric kernels shared by the distribution and entropy layers.

The kernels take float64 ndarrays.  Every sum equals ``math.fsum`` bit for
bit, so results do not depend on the order of the terms.  A long sum runs
in blocks through levels of error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation part I", 2008); ``math.fsum`` rounds
their exact pieces where a bound on what the levels leave certifies that
rounding, and sums the entries elsewhere (see `exact_sum`).  Power sums are
max-factored in log2 space, which keeps them finite for exponents far beyond
the naive overflow point.

The power, log and escort kernels and `segment_sums` are span kernels: they
take one flat array plus ``(start, stop)`` spans and return one result per
span (`escort_weights` returns one array, normalized within each span).  A
single distribution is the one-span case; a joint's rows, or every trial of
the axiom suite, are many spans of one array.  Each span takes its branch by
its own length, and gets the bits it would get alone.  A branch takes all of
its spans at once, with per-span maxima from ``np.maximum.reduceat`` (exact)
and the basic operations (``alpha * t``, ``t - m``, ``w / total``) in numpy,
which rounds them as Python does.  The branches differ in their
transcendentals and sums:

- below ``_VECTOR_MIN`` entries, libm: one C-level ``map`` of ``math.log2``
  or ``math.pow`` over the cells of all such spans, and a ``math.fsum`` per
  span, fed by ``islice`` from that map or one list, which beat numpy's
  per-call overhead;
- at and above it, numpy's log2/exp2/power and one blocked exact sum, into
  which the power, p log p and weighted log sums stream a block of at most
  ``_BLOCK`` entries at a time (`_streamed`), so no temporary is input-sized;
  the max-factored sums and the escort need each span's maximum before any
  term, and hold the positive entries and their logs whole.

``math.pow(x, a)`` makes the C ``pow`` call that ``x ** a`` makes, at about
half the cost: for the positive x and finite a of the kernels both give the
same bits, and both raise ``OverflowError`` where the result would be
infinite (``tests/test_stable.py`` pins it).

numpy's log2/exp2/power may differ from the libm functions by an ulp per
term, so the two branches agree to a few ulps, not bit for bit.
``_VECTOR_MIN`` is the library's only size switch between two arithmetics:
validation and every layer above take one path at every size (``_BLOCKED_MIN``
only picks how `exact_sum` reaches the same bits).
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

_VECTOR_MIN = 256  # below this length libm over Python floats beats numpy's overhead
_BLOCKED_MIN = 640  # below this length math.fsum over tolist() beats the blocked sum
# Blocks of the exact sum and of the streamed kernels: at most this many
# entries, so that their buffers stay in cache and no temporary is larger.
_BLOCK = 2 ** 15
_LEVELS = 3  # extraction levels per block; what they leave is only bounded


def exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of floats, equal to ``math.fsum`` bit for bit.

    A float64 ndarray of ``_BLOCKED_MIN`` entries or more goes in blocks of
    w <= 2**m entries (at most ``_BLOCK``) through up to ``_LEVELS`` levels
    of Rump, Ogita and Oishi's extraction: with sigma a power of two >=
    2**m * max|p|, each p splits exactly into q = (sigma + p) - sigma, a
    multiple of ulp(sigma)/2 of at most max|p|, and p - q; no partial sum of
    the w q's passes sigma = 2**53 * ulp(sigma)/2, so ``add.reduce`` sums
    them exactly in any order, and ``math.fsum`` rounds the exact pieces once
    if a bound on what the levels leave certifies it, else sums the entries
    (see `_round`).  An inf, nan or |x| >= 2**961 sends the sum to
    ``math.fsum``.
    """
    return _segment_fsum(values, [len(values)])[0]


def _segment_fsum(values: np.ndarray, counts: Sequence[int]) -> list[float]:
    """``math.fsum`` of each run of ``counts[k]`` consecutive ``values``, bit for bit:
    `exact_sum` of all runs at once, fed to `_blocked_fsum` a slice at a time."""
    bounds = [0, *itertools.accumulate(counts)]

    def blocks(i, j):
        for b0 in range(bounds[i], bounds[j], _BLOCK):
            yield values[b0:min(b0 + _BLOCK, bounds[j])], None

    return _blocked_fsum(blocks, bounds)


def _blocked_fsum(blocks: Callable, bounds: list[int]) -> list[float]:
    """``math.fsum`` of the values that each run keeps, bit for bit; run k is at positions
    ``bounds[k]`` to ``bounds[k + 1]``.  ``blocks(i, j)`` yields, for each ``_BLOCK``
    positions of runs i to j - 1 from ``bounds[i]``, the values that they keep and the mask
    of those (``None``: all).  If a value is inf, nan or |x| >= 2**961, ``math.fsum`` takes
    each run in order, so an error is the first failing run's."""
    n, k = bounds[-1], len(bounds) - 1
    if k == 1 and n < _BLOCKED_MIN:
        return [_fsum(blocks, 0, 1)]
    size = min(n, _BLOCK) or 1
    m = max(size - 1, 1).bit_length()  # size <= 2**m
    q, r = np.empty(size), None  # the rest after each level; a later level's q
    pending = [(np.zeros(0, np.intp), np.zeros(0))]  # (runs, exact pieces) of every level
    rest = np.zeros(k)  # per run, the sum of |what the levels leave|, rounded
    for b0, (p, keep) in zip(range(0, n, _BLOCK), blocks(0, k)):
        end = min(b0 + _BLOCK, n)
        first, last = bisect.bisect_right(bounds, b0) - 1, bisect.bisect_right(bounds, end - 1) - 1
        offsets, segs = [0], [first]  # the runs with values in the block, and their starts
        if first < last:
            starts = np.array([b0, *bounds[first + 1:last + 1], end]) - b0
            segs = np.flatnonzero(starts[1:] != starts[:-1])
            offsets, segs = starts[segs], segs + first
            if keep is not None:  # to the kept values: a run that keeps none gets no start
                per = np.add.reduceat(keep.view(np.int8), offsets, dtype=np.intp)
                offsets, segs = (per.cumsum() - per)[per > 0], segs[per > 0]
        w = len(p)
        if not w:
            continue
        lo, hi = p.min(), p.max()
        top = max(hi, -lo)
        if not top < 2.0 ** 961:
            return [_fsum(blocks, i, i + 1) for i in range(k)]
        src, e = p, math.frexp(top)[1]  # max|src| <= 2**e
        least = lo if lo > 0.0 else -hi if hi < 0.0 else 0.0  # the least nonzero |p|
        if not least and top:  # zeros or both signs: zeros wrap to the top of the minimum
            least = ((np.abs(p).view(np.int64) - 1).view(np.uint64).min() + 1).view(np.float64)
        for level in range(_LEVELS if top else 0):
            r = np.empty(size) if r is None and level else r
            sigma, t = math.ldexp(1.0, e + m), (r if level else q)[:w]
            np.add(src, sigma, out=t)
            t -= sigma
            pending.append((segs, np.add.reduceat(t, offsets)))
            src = np.subtract(src, t, out=q[:w])
            e += m - 53  # |p - q| <= ulp(sigma)/2 <= 2**e
            # the p - q are multiples of ulp(least), so once least >= 2**(e + m - 1)
            # w of them sum exactly below 2**(e + m) <= 2**53 * ulp(least)
            if least >= math.ldexp(1.0, e + m - 1):
                pending.append((segs, np.add.reduceat(src, offsets)))
                top = 0
            top = top and src.any()
            if not top:
                break
        if top:
            rest[segs] += np.add.reduceat(np.abs(src, out=src), offsets)
    return _round(pending, rest, blocks)


def _round(pending: list, rest: np.ndarray, blocks: Callable) -> list[float]:
    """Every run's sum, in one call after the last block: the ``math.fsum`` h
    of its ``pending`` pieces if ``rest[run]``, a bound on what they miss, is 0
    or, plus the residual d past h, below half an ulp of h (a quarter at a power
    of two); else ``math.fsum`` of its values."""
    if len(rest) == 1:  # one run: every piece is its own
        ready = np.concatenate([v for _, v in pending]).tolist()
        bounds = [0, len(ready)]
    else:
        runs, pieces = map(np.concatenate, zip(*pending))
        order = runs.argsort(kind="stable")
        ready = pieces[order].tolist()
        bounds = runs[order].searchsorted(np.arange(len(rest) + 1)).tolist()
    out = [math.fsum(ready[i:j]) for i, j in itertools.pairwise(bounds)]
    for run in rest.nonzero()[0].tolist():
        i, j, h = bounds[run], bounds[run + 1], out[run]
        margin = math.ulp(h) / (4.0 if abs(math.frexp(h)[0]) == 0.5 else 2.0)
        # the 2**-20 covers the roundings of d and of the bound
        if not (abs(math.fsum(ready[i:j] + [-h])) + rest[run]) * (1.0 + 2.0 ** -20) < margin:
            out[run] = _fsum(blocks, run, run + 1)
    return out


def _fsum(blocks: Callable, i: int, j: int) -> float:
    """``math.fsum`` of the values of runs i to j - 1, one block-sized list at a time."""
    return math.fsum(itertools.chain.from_iterable(p.tolist() for p, _ in blocks(i, j)))


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


def _streamed(fn: Callable, flat: np.ndarray, spans: np.ndarray, *weights) -> list[float]:
    """Per span, the exact sum of ``fn(x, *w, out=buffer)`` over its positive entries x
    (and their ``weights`` w), with no input-sized temporary: the positive entries of a
    block of at most ``_BLOCK`` become terms in one reused buffer, fed to `_blocked_fsum`."""
    bounds = [0, *(spans[:, 1] - spans[:, 0]).cumsum().tolist()]
    where, buf = _where(spans), np.empty(min(bounds[-1], _BLOCK))
    cells = [a[where] for a in (flat, *weights)]  # views when the spans are contiguous

    def blocks(i, j):
        for b0 in range(bounds[i], bounds[j], _BLOCK):
            xs = [a[b0:min(b0 + _BLOCK, bounds[j])] for a in cells]
            keep = xs[0] > 0.0
            if not keep.all():  # a boolean index compresses 5x faster than np.compress
                xs = [a[keep] for a in xs]
            yield fn(*xs, out=buf[:len(xs[0])]), keep

    return _blocked_fsum(blocks, bounds)


def _libm(fn: Callable[..., float], x: np.ndarray, *args) -> np.ndarray:
    """``fn`` of every entry of ``x`` (and of ``args``) over Python floats:
    libm in one C-level map, which beats numpy's per-call overhead on tiny
    inputs, as an array for the numpy steps that follow (see `_exp2` for the
    maps that only `_sums` reads)."""
    return np.fromiter(map(fn, x.tolist(), *args), np.float64, len(x))


def _log2(x: np.ndarray, short: bool) -> np.ndarray:
    return _libm(math.log2, x) if short else np.log2(x)


def _exp2(t: np.ndarray, short: bool):  # a lazy math.pow map if short, else in place
    return map(math.pow, itertools.repeat(2.0), t.tolist()) if short else np.exp2(t, out=t)


def _sums(terms, counts: np.ndarray, short: bool) -> list[float]:
    """The exact sum of each run of ``counts[k]`` consecutive ``terms``:
    for a short group a ``math.fsum`` per run over an ``islice`` of the terms
    (an array or an iterator), for a long group one segmented exact sum."""
    if not short:
        return _segment_fsum(terms, counts.tolist())
    terms = iter(terms.tolist() if isinstance(terms, np.ndarray) else terms)
    return list(map(math.fsum, map(itertools.islice, itertools.repeat(terms), counts.tolist())))


def _spread(per_span: np.ndarray, counts: np.ndarray):
    """``per_span[k]`` repeated ``counts[k]`` times (a scalar for one span)."""
    return per_span[0] if len(counts) == 1 else np.repeat(per_span, counts)


def _scaled_powers(logs: np.ndarray, counts: np.ndarray, alpha: float, short: bool, keep=False):
    """Per span the largest t = alpha * log2(x), m, and every 2**(t - m),
    from the ``logs`` of the positive x (overwritten unless ``keep``).
    Every span needs a positive entry."""
    if np.count_nonzero(counts) < len(counts):
        raise ValueError("every span needs a positive entry")
    t = np.multiply(logs, alpha, out=None if keep else logs)
    m = np.maximum.reduceat(t, counts.cumsum() - counts)
    t -= _spread(m, counts)
    return m, _exp2(t, short)


def _escort(logs: np.ndarray, counts: np.ndarray, alpha: float, short: bool, keep=False):
    """The alpha-escort weights of each span's positive x from their ``logs``
    (see `_scaled_powers`), and the sum that normalized each span."""
    w = _scaled_powers(logs, counts, alpha, short, keep)[1]
    w = np.fromiter(w, np.float64, len(logs)) if short else w
    totals = _sums(w, counts, short)
    w /= _spread(np.array(totals), counts)
    return w, totals


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


def log2_power_sum(
    flat: np.ndarray, spans: Spans, alpha: float, minus: float | None = None
) -> list[float]:
    """Per span, log2 of sum_k p_k**alpha over its positive entries, less
    the same for exponent ``minus`` if given (from one log2 per entry).

    Factoring out the largest term keeps every intermediate in [0, 1], so
    the result is finite for |alpha| up to several hundred.  Every span
    needs a positive entry.
    """

    def group(spans, short):
        _, x, _, counts = _cells(flat, spans)
        logs = _log2(x, short)
        exponents, values = [alpha] if minus is None else [alpha, minus], []
        for k, a in enumerate(exponents):  # the last one may overwrite the logs
            m, terms = _scaled_powers(logs, counts, a, short, keep=k < len(exponents) - 1)
            sums = _sums(terms, counts, short)
            values.append([b + math.log2(s) for b, s in zip(m.tolist(), sums)])
        return values[0] if minus is None else [a - b for a, b in zip(*values)]

    return _span_map(spans, group)


def power_sum(flat: np.ndarray, spans: Spans, alpha: float) -> list[float]:
    """Per span, sum_k p_k**alpha over positive entries (0**alpha := 0 for alpha > 0)."""

    def group(spans, short):
        if not short:
            return _streamed(lambda x, out: np.power(x, alpha, out=out), flat, spans)
        _, x, _, counts = _cells(flat, spans)
        return _sums(map(math.pow, x.tolist(), itertools.repeat(alpha)), counts, short)

    try:
        return _span_map(spans, group)
    except OverflowError as exc:
        raise Overflow(f"power sum with exponent {alpha!r} overflowed") from exc


def plogp_sum(flat: np.ndarray, spans: Spans) -> list[float]:
    """Per span, sum_k p_k * log2(p_k) over positive entries (0*log 0 := 0)."""
    return weighted_log2_sum(None, flat, spans)


def weighted_log2_sum(
    weights: np.ndarray | None, flat: np.ndarray, spans: Spans, alpha: float = 1.0
) -> list[float]:
    """Per span, sum_k w_k * log2(p_k) over the positive entries p_k of ``flat``.

    Without ``weights``, w is each span's `escort_weights` of ``alpha`` (p
    itself at alpha 1), bit for bit, from the same log2 per entry.
    """

    def group(spans, short):
        if not short and (weights is not None or alpha == 1.0):
            return _streamed(  # w log2 x, or x log2 x
                lambda x, *w, out: np.multiply(np.log2(x, out=out), w[0] if w else x, out=out),
                flat, spans, *(() if weights is None else (weights,)))
        where, x, pos, counts = _cells(flat, spans)
        logs = _log2(x, short)
        if weights is not None:
            logs *= weights[where] if pos is None else weights[where][pos]
        else:
            logs *= x if alpha == 1.0 else _escort(logs, counts, alpha, short, keep=True)[0]
        return _sums(logs, counts, short)

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
        w, totals = _escort(_log2(x, short), counts, alpha, short)
        if pos is not None:  # zero weights back in place
            full = np.zeros(pos.size)
            full[pos] = w
            w = full
        out[where] = w
        return totals

    _span_map(spans, group)
    return out
