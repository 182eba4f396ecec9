"""numpy's ``Generator.integers`` and ``Generator.exponential(1.0)`` draws,
and its ``add.reduce`` row sums, bit for bit, with no array per draw and no
numpy call per row.

`Draws.trials` draws one suite store's trials in one loop onto growing
buffers: per trial r in [2, high], then r lengths in [1, cols] and as many
exponential cells as they sum to, or r cells, as the store asks.  It calls
``random_bounded_uint64_fill`` and ``random_standard_exponential_fill``, the
C functions behind those two methods that ``numpy.random._generator``
exports, through ctypes on the generator's own bit generator, so the stream
is the one the methods would draw; without ``argtypes`` (a conversion of
every argument per call), on ctypes objects built once per loop.  Where the
samplers are missing, or do not reproduce the methods through this loop on
a fixed seed (`c_samplers` is then None), or for a generator that is not a
``numpy.random.Generator``, the loop calls the methods themselves.  It only
appends: the stream is never rewound, and a caller skips what it refuses.

In `row_sums` numpy sums the rows, grouped by length: one ``add.reduce``
along the rows of each group (``add.reduceat`` would sum each row left to
right, not pairwise as ``add.reduce`` does).
"""

from __future__ import annotations

import ctypes
import functools
from typing import Sequence

import numpy as np

from ._stable import bounds_of, gather


@functools.cache
def c_samplers():
    """numpy's exported (bounded integers, standard exponential) fill
    functions, or None where they cannot be loaded or do not draw what the
    Generator methods draw.  Loaded on first use: touching
    ``numpy.random`` imports it."""
    try:
        from numpy.random import _generator

        lib = ctypes.CDLL(_generator.__file__)
        bounded, exponential = lib.random_bounded_uint64_fill, lib.random_standard_exponential_fill
    except (ImportError, OSError, AttributeError):
        return None
    bounded.restype = exponential.restype = None
    return (bounded, exponential) if _reproduces((bounded, exponential)) else None


def _reproduces(fills) -> bool:
    """Whether ``fills``, driven by `Draws.trials`, draw the trials, and
    leave the stream, as the Generator methods do on a fixed seed."""
    runs = []
    for use in (fills, None):
        rng = np.random.default_rng(1311_0324)
        draws = Draws(rng, use)
        draws.trials([8, 3], 9)  # a joint's store
        draws.trials([5, 2, 7])  # a distribution's
        draws.trials([4], 1, cells=False)  # counts, of one length only
        draws.trials([3], 2 ** 40, cells=False)
        drawn = draws.rows, draws.ints.used().tolist(), draws.cells.used().tolist()
        runs.append((*drawn, rng.integers(2 ** 62)))
    return runs[0] == runs[1]


class _Buffer:
    """A growing array of 256 items at first: ``used()`` is what was appended so far."""

    __slots__ = ("array", "view", "address", "size")

    def __init__(self, dtype) -> None:
        self.array = np.empty(256, dtype)
        self.view, self.address, self.size = memoryview(self.array), self.array.ctypes.data, 0

    def take(self, count: int) -> int:
        """Room for ``count`` more items, doubling as needed: their start."""
        start = self.size
        if start + count > len(self.array):
            grown = np.empty(max(2 * len(self.array), start + count), self.array.dtype)
            grown[:start] = self.array[:start]
            self.array, self.view, self.address = grown, memoryview(grown), grown.ctypes.data
        self.size = start + count
        return start

    def used(self) -> np.ndarray:
        return self.array[:self.size]


class Draws:
    """One generator's trials, appended in order: each trial's r to ``rows``,
    its lengths to ``ints`` and its exponential cells to ``cells``.  With
    ``fills`` (`c_samplers()`), the draws go through numpy's C samplers, else
    through ``rng.integers`` and ``rng.exponential``; the stream and the
    draws are the same.  The C path takes no lock, while the methods do:
    ``run_suite``'s generator is private."""

    def __init__(self, rng, fills=None) -> None:
        self.rows, self.ints, self.cells = [], _Buffer(np.int64), _Buffer(np.float64)
        self.rng, self.fills, self.c = rng, fills, fills is not None

    def trials(self, highs: Sequence[int], cols: int = 0, cells: bool = True) -> None:
        """One trial per entry of ``highs``: r from [2, high], as
        ``rng.integers(2, high + 1)``; with ``cols``, r lengths from [1,
        cols]; with ``cells``, that many exponential cells (their sum with
        lengths, else r)."""
        rows, ints, out, rng = self.rows, self.ints, self.cells, self.rng
        if not self.c:
            for high in highs:
                rows.append(r := int(rng.integers(2, high + 1)))
                if cols:
                    start = ints.take(r)
                    ints.array[start:start + r] = rng.integers(1, cols + 1, size=r)
                    r = int(ints.array[start:start + r].sum())
                if cells:
                    start = out.take(r)
                    out.array[start:start + r] = rng.exponential(1.0, size=r)
            return
        bounded, exponential = self.fills
        # the samplers write through the bit generator's address: ``rng`` is
        # held by ``self``, so that its state outlives every call
        state, u64 = rng.bit_generator.ctypes.bit_generator, ctypes.c_uint64
        two, one, no, r_slot = u64(2), ctypes.c_ssize_t(1), ctypes.c_bool(False), ctypes.c_int64()
        r_at = ctypes.c_void_p(ctypes.addressof(r_slot))
        spans = {high: u64(int(high) - 2) for high in set(highs)}  # ctypes takes no numpy int
        first, width = u64(1), u64(max(int(cols) - 1, 0))
        count, dest = ctypes.c_ssize_t(), ctypes.c_void_p()  # updated through ``value``
        for high in highs:
            bounded(state, two, spans[high], one, no, r_at)
            r = count.value = r_slot.value
            rows.append(r)
            if cols:
                start = ints.take(r)
                dest.value = ints.address + 8 * start
                bounded(state, first, width, count, no, dest)
                r = count.value = sum(ints.view[start:start + r])
            if cells:
                start = out.take(r)  # before ``address``, which it may move
                dest.value = out.address + 8 * start
                exponential(state, count, dest)


def draws(rng) -> Draws:
    """`Draws` of ``rng``, through the C samplers if they serve it."""
    return Draws(rng, c_samplers() if isinstance(rng, np.random.Generator) else None)


def sequential_sums(values: np.ndarray, counts) -> np.ndarray:
    """The left-to-right sum of each consecutive run of ``counts`` values,
    as Python's ``sum`` of floats up to 3.11: runs padded with zeros, which
    add exactly, and accumulated along."""
    counts = np.asarray(counts)
    padded = np.zeros((len(counts), int(counts.max())))
    padded[np.arange(padded.shape[1]) < counts[:, None]] = values  # row-major: runs in order
    return np.add.accumulate(padded, axis=1)[:, -1]


def row_sums(cells: np.ndarray, lengths) -> np.ndarray:
    """``np.add.reduce`` of each consecutive row of ``lengths`` cells, bit for
    bit: the rows in order of length, and each run of rows of one length
    reduced along the rows of one matrix, which sums every row as alone."""
    lengths = np.asarray(lengths, dtype=np.intp)
    order = lengths.argsort(kind="stable")
    ordered = gather(cells, bounds_of(lengths), order)[0]
    rows = np.bincount(lengths)  # the number of rows of each length
    in_order, i, at = np.empty(len(lengths)), 0, 0
    for n in np.flatnonzero(rows).tolist():
        j = i + int(rows[n])
        np.add.reduce(ordered[at:at + (j - i) * n].reshape(j - i, n), axis=1, out=in_order[i:j])
        i, at = j, at + (j - i) * n
    sums = np.empty(len(lengths))
    sums[order] = in_order
    return sums
