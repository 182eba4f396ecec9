"""Stable numeric kernels shared by the distribution and entropy layers.

The kernels take float64 ndarrays.  Every sum equals ``math.fsum`` bit for
bit, so results do not depend on the order of the terms.  A sum runs in
blocks through levels of error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation part I", 2008), which leave each run a few
exact pieces per block, and rounds each block's runs as it ends: in numpy,
with one add where TwoSum (Knuth) shows the others exact; else ``math.fsum``
of the pieces (after its last block, for a run that spans blocks) or of the
entries, where no bound certifies the pieces (see `exact_sum` and `_round`).
Power sums are max-factored in log2 space, which keeps them finite for
exponents far beyond the naive overflow point.

Runs are described one way throughout: by ``bounds``, run k being
``flat[bounds[k]:bounds[k + 1]]``, and a selection of runs by their indices.
The bounds run from 0 to ``len(flat)``, so the runs cover their input
(``[0]``: no runs); no kernel checks it.
`bounds_of` makes bounds from run lengths, and `gather` puts selected runs
end to end (a view when they are adjacent) with their new bounds.  The power,
log and escort kernels and `segment_sums` are span kernels: they take one
flat array plus ``bounds`` and return one float64 array, one entry per run
(`escort_weights` returns the weights, normalized within each run).  The one
sum of weighted logs, `weighted_log2_sum`, streams p log2 p at alpha 1.  The
layers above keep per-run results in that format; a value becomes a Python
float only at a public scalar return.  A kernel takes all of its runs at once,
whatever their lengths: per-run maxima from ``np.maximum.reduceat`` (exact),
numpy's log2, exp2 and power and its basic operations, which act on each entry
alone, libm's log2 per run in one C-level map, and one blocked exact sum, so
every run gets the bits it would get alone.  No temporary is input-sized but the
logs that the max-factored kernels hold (see `_streamed` and `_per_run`).  The
kernels keep their own numpy error state, so the caller's does not change a
result: a term that underflows is exact after max-factoring, and one that
overflows is an inf term.  They raise Python's own errors alone, which the
caller types: a call's is the one that its first failing run raises alone, as
`_blocked_fsum` takes the runs in order where a sum can fail, and the kernels'
other errors name no run.

`divide_runs` divides each run by its total, one scalar per run and a block
at a time, in place when the caller owns the array, else into one new array.
Every per-run division of the layers above goes through it (the validating
constructors, the marginals and conditionals, the conditional entropies and
the suite's draws), so they too hold at most one input-sized array: on 2**20
entries, `make_distribution` and `make_joint` peak at 1.15x and 1.13x their
8 MiB result (tracemalloc) where they held two arrays, and
`conditional_entropy` of shannon on a held 1024 x 1024 joint at 1.08x one
array of its cells, from 2.0x.

The ``uniform_*`` kernels take the uniforms U_n by their dimensions alone and
give the power, log and p log p sums that the span kernels give on U_n's
cells, bit for bit, from a few operations per run (see their section).

``_FSUM_MAX`` is the library's only size switch: runs of at most that many
entries in all, in one block, are summed by one ``math.fsum`` each, which
gives the blocked sum's bits at less overhead.  Validation and every layer
above take one path at every size.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

_FSUM_MAX = 255  # runs of at most this many entries in all: math.fsum beats the blocked sum
# Blocks of the exact sum and of the streamed kernels: at most this many
# entries, so that their buffers stay in cache and no temporary is larger.
_BLOCK = 2 ** 15
_LEVELS = 3  # extraction levels per block; what they leave is only bounded


def exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of floats, equal to ``math.fsum`` bit for bit.

    A float64 ndarray of more than ``_FSUM_MAX`` entries goes in blocks of
    w <= 2**m entries (at most ``_BLOCK``) through up to ``_LEVELS`` levels
    of Rump, Ogita and Oishi's extraction: with sigma a power of two >=
    2**m * max|p|, each p splits exactly into q = (sigma + p) - sigma, a
    multiple of ulp(sigma)/2 of at most max|p|, and p - q; no partial sum of
    the w q's passes sigma = 2**53 * ulp(sigma)/2, so ``add.reduce`` sums
    them exactly in any order.  The exact pieces are rounded once, in numpy
    where the run lies in one block and TwoSum shows every add but the last
    exact, else by ``math.fsum``, if a bound on what the levels leave
    certifies it; otherwise ``math.fsum`` sums the entries (see `_round`).
    An inf, nan or |x| >= 2**961, or at most ``_FSUM_MAX`` entries, go to ``math.fsum``.
    """
    if len(values) <= min(_FSUM_MAX, _BLOCK):
        return math.fsum(values.tolist())
    return float(_segment_fsum(values, [0, len(values)])[0])


def _segment_fsum(values: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """``math.fsum`` of each run ``values[bounds[k]:bounds[k + 1]]``, bit for bit:
    `exact_sum` of all runs at once, fed to `_blocked_fsum` a slice at a time."""
    bounds = np.asarray(bounds, dtype=np.intp)

    def blocks(i, j):
        stop = int(bounds[j])
        for b0 in range(int(bounds[i]), stop, _BLOCK):
            yield values[b0:min(b0 + _BLOCK, stop)], None

    return _blocked_fsum(blocks, bounds)


def _blocked_fsum(blocks: Callable, bounds: np.ndarray) -> np.ndarray:
    """``math.fsum`` of the values that each run keeps, bit for bit; run k is at positions
    ``bounds[k]`` to ``bounds[k + 1]``.  ``blocks(i, j)`` yields, for each ``_BLOCK``
    positions of runs i to j - 1 from ``bounds[i]``, the values that they keep and the mask
    of those (``None``: all).  The runs are split once per call, by one search, and each
    block's runs are rounded as it ends (see `_round`).  If a value is inf, nan or |x| >=
    2**961, ``math.fsum`` takes each run in order, so an error is the first failing run's."""
    n, k = int(bounds[-1]), len(bounds) - 1
    if n <= min(_FSUM_MAX, _BLOCK):  # one block: one list, and one math.fsum per run
        values, ends = [], bounds.tolist()
        for p, keep in blocks(0, k):
            values = p.tolist()
            if keep is not None:  # where each run's kept values start in the list
                ends = np.concatenate(([0], keep.cumsum()))[bounds].tolist()
        return np.array([math.fsum(values[i:j]) for i, j in itertools.pairwise(ends)])
    size = min(n, _BLOCK)
    m = max(size - 1, 1).bit_length()  # size <= 2**m
    q, r = np.empty(size), None  # the rest after each level; a later level's q
    # the runs with values (None: all), their starts then n, and each block's first and last
    runs = bounds[1:] > bounds[:-1]
    runs = None if np.count_nonzero(runs) == k else np.flatnonzero(runs)
    cuts = bounds if runs is None else np.append(bounds[runs], n)
    starts = range(0, n, _BLOCK)
    cut = cuts[1:-1].searchsorted([*starts, *(b + _BLOCK - 1 for b in starts)], "right").tolist()
    out, held = np.zeros(k), None
    for b0, first, last, (p, keep) in zip(starts, cut, cut[len(starts):], blocks(0, k)):
        segs = np.arange(first, last + 1) if runs is None else runs[first:last + 1]
        offsets = cuts[first:last + 1]  # the block's runs with values, their starts in it
        if b0:
            offsets = offsets - b0
            offsets[0] = 0
        crossing = cuts[last + 1] > b0 + _BLOCK  # the last run goes on into the next block
        if keep is not None and first < last:  # to the kept values: a run keeping none has no start
            per = np.add.reduceat(keep.view(np.int8), offsets, dtype=np.intp)
            kept = per > 0
            offsets, segs, crossing = (per.cumsum() - per)[kept], segs[kept], crossing and kept[-1]
        w = len(p)
        if not w:
            continue
        lo, hi = p.min(), p.max()
        top = max(hi, -lo)
        if not top < 2.0 ** 961:
            return np.array([_fsum(blocks, i, i + 1) for i in range(k)])
        src, e = p, math.frexp(top)[1]  # max|src| <= 2**e
        least = lo if lo > 0.0 else -hi if hi < 0.0 else 0.0  # the least nonzero |p|
        if not least and top:  # zeros or both signs: zeros wrap to the top of the minimum
            least = ((np.abs(p).view(np.int64) - 1).view(np.uint64).min() + 1).view(np.float64)
        pieces = []
        for level in range(_LEVELS if top else 0):
            r = np.empty(size) if r is None and level else r
            sigma, t = math.ldexp(1.0, e + m), (r if level else q)[:w]
            np.add(src, sigma, out=t)
            t -= sigma
            pieces.append(np.add.reduceat(t, offsets))
            src = np.subtract(src, t, out=q[:w])
            e += m - 53  # |p - q| <= ulp(sigma)/2 <= 2**e
            # the p - q are multiples of ulp(least), so once least >= 2**(e + m - 1)
            # w of them sum exactly below 2**(e + m) <= 2**53 * ulp(least)
            if least >= math.ldexp(1.0, e + m - 1):
                pieces.append(np.add.reduceat(src, offsets))
                top = 0
            top = top and src.any()
            if not top:
                break
        if pieces:  # per run, the sum of |what the levels leave|, rounded
            rest = np.add.reduceat(np.abs(src, out=src), offsets) if top else np.zeros(len(segs))
            held = _round(out, segs, pieces, rest, held, crossing, blocks)
    if held:
        _settle(out, *held, blocks)
    return out


def _round(out, segs, pieces, rest, held, crossing, blocks) -> tuple | None:
    """The sums of one block's runs ``segs`` into ``out`` from each level's exact pieces
    and ``rest``, per run a bound on what they miss.  ``held`` (or ``None``) is the run
    that came in from the blocks before: its index, pieces and rest so far; the same for
    the block's last run is returned if ``crossing`` says that it goes on.  A run inside
    the block with no rest is rounded in numpy: its pieces are added smallest first, and
    if TwoSum (Knuth) finds every add but the last exact, the last one rounds the exact
    sum once, as ``math.fsum`` does (no piece reaches 2**976, so no add overflows; a
    level's pieces sum (p + sigma) - sigma, never -0.0, so neither is a total).  `_settle`
    takes any other run after its last block with values, so one block's pieces are held."""
    total, redo = pieces[-1], rest > 0.0
    for level in range(len(pieces) - 2, -1, -1):
        piece, total, low = pieces[level], pieces[level] + total, total
        if level:  # TwoSum's error of the add: not 0, the add rounded
            back = total - piece
            redo |= (piece - (total - back)) + (low - back) != 0.0
    out[segs] = total
    run, column, bound = held or (-1, [], 0.0)
    if held and run != segs[0]:  # it ended in a block before, with no values there
        _settle(out, run, column, bound, blocks)
    redo[0] |= run == segs[0]
    redo[-1] |= crossing
    if not np.count_nonzero(redo):
        return None
    hit = redo.nonzero()[0]
    for i, s, r, *own in zip(hit.tolist(), segs[hit].tolist(), rest[hit].tolist(),
                             *(piece[hit].tolist() for piece in pieces)):
        if s == run:
            own, r = column + own, bound + r
        if crossing and i == len(segs) - 1:
            return s, own, r
        _settle(out, s, own, r, blocks)


def _settle(out: np.ndarray, run: int, column: list, rest: float, blocks: Callable) -> None:
    """``out[run]``: the ``math.fsum`` h of its exact pieces ``column`` if ``rest``, a bound
    on what they miss, is 0 or, plus the residual d past h, below half an ulp of h (a
    quarter at a power of two); else ``math.fsum`` of the run's values."""
    h = out[run] = math.fsum(column)
    if rest:
        margin = math.ulp(h) / (4.0 if abs(math.frexp(h)[0]) == 0.5 else 2.0)
        # the 2**-20 covers the roundings of d and of the bound
        if not (abs(math.fsum(column + [-h])) + rest) * (1.0 + 2.0 ** -20) < margin:
            out[run] = _fsum(blocks, run, run + 1)


def _fsum(blocks: Callable, i: int, j: int) -> float:
    """``math.fsum`` of the values of runs i to j - 1, one block-sized list at a time."""
    return math.fsum(itertools.chain.from_iterable(p.tolist() for p, _ in blocks(i, j)))


def bounds_of(lengths) -> np.ndarray:
    """The bounds of consecutive runs of ``lengths`` entries: where each starts, then the end."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))


def gather(values: np.ndarray, bounds: Sequence[int], runs: Sequence[int]) -> tuple:
    """The entries of the runs ``runs`` (indices of the runs between ``bounds``) end to
    end, and their bounds there: a view when each run starts where the one before it
    stops, else gathered by an index array."""
    bounds = np.asarray(bounds, dtype=np.intp)
    runs = np.asarray(runs, dtype=np.intp)
    starts, stops = bounds[runs], bounds[runs + 1]
    lengths = stops - starts
    gathered = bounds_of(lengths)
    if not np.count_nonzero(starts[1:] - stops[:-1]):
        return values[int(starts[0]):int(stops[-1])] if len(runs) else values[:0], gathered
    # entry e of run k sits at starts[k] + e, and at gathered[k] + e end to end
    return values[np.arange(gathered[-1]) + np.repeat(starts - gathered[:-1], lengths)], gathered


def _cells(x: np.ndarray, bounds: np.ndarray):
    """The log2 of the positive entries of the runs of ``x`` between ``bounds``, the mask
    of those among all (``None`` when all are, which spares the compress) and their
    bounds; the logs overwrite the compressed copy, never ``x``."""
    pos = x > 0.0
    if np.count_nonzero(pos) == len(pos):
        return np.log2(x), None, bounds
    # reduceat over the runs that have entries (it misreads empty ones)
    nonempty = np.flatnonzero(bounds[1:] > bounds[:-1])
    positives = np.zeros(len(bounds) - 1, dtype=np.intp)
    positives[nonempty] = np.add.reduceat(pos, bounds[nonempty], dtype=np.intp)
    x = x[pos]
    return np.log2(x, out=x), pos, bounds_of(positives)


def _streamed(fn: Callable, bounds: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per run of ``x`` between ``bounds``, the exact sum of ``fn(p, out=buf)`` over its
    positive p, with no input-sized temporary: a block of at most ``_BLOCK`` entries at
    a time, fed to `_blocked_fsum`."""
    buf = np.empty(min(int(bounds[-1]), _BLOCK))

    def blocks(i, j):
        stop = int(bounds[j])
        for b0 in range(int(bounds[i]), stop, _BLOCK):
            p = x[b0:min(b0 + _BLOCK, stop)]
            keep = p > 0.0
            if not keep.all():  # a boolean index compresses 5x faster than np.compress
                p = p[keep]
            yield fn(p, out=buf[:len(p)]), keep if len(p) < len(keep) else None

    return _blocked_fsum(blocks, bounds)


def _per_run(op: Callable, x: np.ndarray, per_run, bounds, out: np.ndarray) -> None:
    """``op(x, per_run[k], out=out)`` over each run k of ``x`` between ``bounds``: at once
    for at most ``_BLOCK`` entries, else a block at a time, so that no temporary is
    input-sized.  A run that holds all of the entries, or of a block, takes a scalar."""
    if len(bounds) == 2:
        return op(x, per_run[0], out=out)
    if len(x) <= _BLOCK:
        return op(x, np.repeat(per_run, np.diff(bounds)), out=out)
    for b0 in range(0, len(x), _BLOCK):
        block, dest = x[b0:b0 + _BLOCK], out[b0:b0 + _BLOCK]
        first, last = np.searchsorted(bounds, [b0, b0 + len(block) - 1], "right") - 1
        if first == last:
            op(block, per_run[first], out=dest)
        else:  # the runs' lengths inside the block
            edges = bounds[first:last + 2].copy()
            edges[0], edges[-1] = b0, b0 + len(block)
            op(block, np.repeat(per_run[first:last + 1], np.diff(edges)), out=dest)


@np.errstate(all="ignore")  # a quotient that underflows is still the correctly rounded one
def divide_runs(x: np.ndarray, totals, bounds: Sequence[int], out: np.ndarray | None = None):
    """Each run k of ``x`` between ``bounds`` divided by ``totals[k]``, correctly
    rounded entry by entry, under the kernels' numpy error state: into ``out`` (``x``
    itself, when the caller owns it, divides in place), else into one new array, with
    no copy of ``x`` first (see `_per_run`)."""
    out = np.empty(len(x)) if out is None else out
    _per_run(np.divide, x, totals, bounds, out)
    return out


def _scaled_powers(logs: np.ndarray, bounds: np.ndarray, alpha: float, keep=False):
    """Per run between ``bounds`` the largest t = alpha * log2(x), m, and every
    2**(t - m), from the ``logs`` of the positive x (overwritten unless ``keep``).
    Every run needs a positive entry."""
    if np.count_nonzero(bounds[1:] <= bounds[:-1]):
        raise ValueError("every run needs a positive entry")
    t = np.multiply(logs, alpha, out=None if keep else logs)
    m = np.maximum.reduceat(t, bounds[:-1])
    _per_run(np.subtract, t, m, bounds, t)
    return m, np.exp2(t, out=t)


def _escort(logs: np.ndarray, bounds: np.ndarray, alpha: float, keep=False):
    """The alpha-escort weights of each run's positive x from their ``logs``
    (see `_scaled_powers`), and the sum that normalized each run."""
    w = _scaled_powers(logs, bounds, alpha, keep)[1]
    totals = _segment_fsum(w, bounds)
    return divide_runs(w, totals, bounds, out=w), totals


@np.errstate(all="ignore")
def segment_sums(values: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """Exact sums of ``values[bounds[k]:bounds[k + 1]]`` for every k."""
    return _segment_fsum(values, bounds)


@np.errstate(all="ignore")
def log2_power_sum(
    flat: np.ndarray, bounds: Sequence[int], alpha: float, minus: float | None = None
) -> np.ndarray:
    """Per run, log2 of sum_k p_k**alpha over its positive entries, less
    the same for exponent ``minus`` if given (from one log2 per entry).

    Factoring out the largest term keeps every intermediate in [0, 1], so
    the result is finite for |alpha| up to several hundred.  Every run
    needs a positive entry.
    """
    logs, _, bounds = _cells(flat, np.asarray(bounds, dtype=np.intp))
    exponents, values = [alpha] if minus is None else [alpha, minus], []
    for k, a in enumerate(exponents):  # the last one may overwrite the logs
        m, terms = _scaled_powers(logs, bounds, a, keep=k < len(exponents) - 1)
        sums = _segment_fsum(terms, bounds)
        values.append(m + np.fromiter(map(math.log2, sums.tolist()), np.float64, len(sums)))
    return values[0] if minus is None else values[0] - values[1]


@np.errstate(all="ignore")
def power_sum(flat: np.ndarray, bounds: Sequence[int], alpha: float) -> np.ndarray:
    """Per run, sum_k p_k**alpha over positive entries (0**alpha := 0 for alpha > 0);
    a term or a sum past the float range raises ``OverflowError`` for the caller to type."""
    sums = _streamed(lambda x, out: np.power(x, alpha, out=out),
                     np.asarray(bounds, dtype=np.intp), flat)
    if np.count_nonzero(np.isinf(sums)):
        raise OverflowError(f"power sum with exponent {alpha!r} overflowed")
    return sums


@np.errstate(all="ignore")
def weighted_log2_sum(flat: np.ndarray, bounds: Sequence[int], alpha: float = 1.0) -> np.ndarray:
    """Per run, sum_k w_k * log2(p_k) over the positive entries p_k of ``flat``, w
    being the run's `escort_weights` of ``alpha``, bit for bit, from the same log2 per
    entry.  At alpha 1, w is p itself: the sum of p log2 p (0*log 0 := 0), streamed."""
    bounds = np.asarray(bounds, dtype=np.intp)
    if alpha == 1.0:
        return _streamed(lambda x, out: np.multiply(np.log2(x, out=out), x, out=out), bounds, flat)
    logs, _, bounds = _cells(flat, bounds)
    logs *= _escort(logs, bounds, alpha, keep=True)[0]
    return _segment_fsum(logs, bounds)


@np.errstate(all="ignore")
def escort_weights(flat: np.ndarray, bounds: Sequence[int], alpha: float) -> np.ndarray:
    """Weights p_k**alpha / sum_i p_i**alpha, normalized within each run, max-factored.

    Zero entries keep weight exactly 0 (valid only for alpha > 0; callers
    enforce positivity of the input when alpha <= 0).  ``alpha == 1`` returns
    the input unchanged, so the identity holds exactly.
    """
    if alpha == 1.0:
        return flat
    logs, pos, bounds = _cells(flat, np.asarray(bounds, dtype=np.intp))
    w = _escort(logs, bounds, alpha)[0]
    if pos is None:
        return w
    out = np.zeros(len(flat))  # the zero weights stay in place
    out[pos] = w
    return out


# The uniforms U_n, each given by its n in ``dims`` (a float64 array, 1 <= n < 2**53),
# in closed form: on a run of n equal entries c = 1/n each kernel's arithmetic collapses
# to a few operations per run, with its bits.  The max-factored terms are 2**(t - t), 1
# (nan where t = alpha * log2(c) is not finite), so the escort weights are 1/n = c, and
# the exact sum of n copies of a term x is n * x, rounded once.


@np.errstate(all="ignore")
def uniform_log2_power_sum(dims: np.ndarray, alpha: float, minus: float | None = None):
    """`log2_power_sum` of each uniform, from libm's log2 of n as the kernel's finish."""
    logs, values = np.log2(1.0 / dims), []
    for a in [alpha] if minus is None else [alpha, minus]:
        m = logs * a
        sums = dims * np.exp2(m - m)
        values.append(m + np.fromiter(map(math.log2, sums.tolist()), np.float64, len(sums)))
    return values[0] if minus is None else values[0] - values[1]


@np.errstate(all="ignore")
def uniform_power_sum(dims: np.ndarray, alpha: float) -> np.ndarray:
    """`power_sum` of each uniform at alpha > 0, where no term exceeds 1, so no sum overflows."""
    return dims * np.power(1.0 / dims, alpha)


@np.errstate(all="ignore")
def uniform_weighted_log2_sum(dims: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """`weighted_log2_sum` of each uniform."""
    weights = 1.0 / dims
    logs = np.log2(weights)
    if alpha != 1.0:  # the escort: each max-factored term over their exact sum
        t = logs * alpha
        one = np.exp2(t - t)
        weights = one / (dims * one)
    return dims * (logs * weights)
