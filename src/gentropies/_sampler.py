"""numpy's ``Generator.integers`` and ``Generator.exponential(1.0)`` draws,
and its ``add.reduce`` row sums, bit for bit, with no array per draw and no
numpy call per row.

`Draws` appends the draws of one generator to two growing buffers through
the C samplers that ``numpy.random._generator`` exports,
``random_bounded_uint64_fill`` and ``random_standard_exponential_fill``: the
functions behind those two methods, called through ctypes on the
generator's own bit generator, so the stream is the one the methods would
draw.  Where the samplers are missing, or do not reproduce the methods on a
fixed seed (`c_samplers` is then None), or for a generator that is not a
``numpy.random.Generator``, `Draws` calls the methods themselves.  It only
appends: the stream is never rewound, and a caller skips what it refuses.

In `row_sums` numpy sums the rows, grouped by length: one ``add.reduce``
along the rows of each group (``add.reduceat`` would sum each row left to
right, not pairwise as ``add.reduce`` does).
"""

from __future__ import annotations

import ctypes
import functools

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
    p, count = ctypes.c_void_p, ctypes.c_ssize_t
    bounded.argtypes = [p, ctypes.c_uint64, ctypes.c_uint64, count, ctypes.c_bool, p]
    exponential.argtypes = [p, count, p]
    bounded.restype = exponential.restype = None
    return (bounded, exponential) if _reproduces((bounded, exponential)) else None


def _reproduces(fills) -> bool:
    """Whether ``fills`` draw the cells, and leave the stream, as the
    Generator methods do on a fixed seed."""
    runs = []
    for use in (fills, None):
        rng = np.random.default_rng(1311_0324)
        draws = Draws(rng, use)
        draws.exponential(draws.integers(1, 9, draws.integer(2, 8)))
        draws.integers(1, 1, 3)
        draws.integers(1, 2 ** 40, 5)
        drawn = draws.ints.used().tolist(), draws.cells.used().tolist()
        runs.append((*drawn, rng.integers(2 ** 62)))
    return runs[0] == runs[1]


class _Buffer:
    """A growing array: ``used()`` is what was appended so far."""

    __slots__ = ("array", "view", "address", "size")

    def __init__(self, dtype, capacity: int = 256) -> None:
        self.array = np.empty(capacity, dtype)
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
    """One generator's draws, appended in order: integers to ``ints`` and
    exponential cells to ``cells``.  With ``fills`` (`c_samplers()`), the
    draws go through numpy's C samplers, else through ``rng.integers`` and
    ``rng.exponential``; the stream and the cells are the same.  The C path
    takes no lock, while the methods do: ``run_suite``'s generator is private."""

    def __init__(self, rng, fills=None) -> None:
        self.ints, self.cells = _Buffer(np.int64), _Buffer(np.float64)
        self._one = _Buffer(np.int64, 1)
        # the C samplers write through the bit generator's address: ``rng``
        # is held, so that its state outlives every call
        self.rng, self.c = rng, fills is not None
        if self.c:
            state = rng.bit_generator.ctypes.bit_generator
            bounded, exponential = fills

            def fill_ints(low, high, count, buf, start):
                bounded(state, low, high - low, count, False, buf.address + 8 * start)

            def fill_cells(count, buf, start):
                exponential(state, count, buf.address + 8 * start)
        else:
            def fill_ints(low, high, count, buf, start):
                buf.array[start:start + count] = rng.integers(low, high + 1, size=count)

            def fill_cells(count, buf, start):
                buf.array[start:start + count] = rng.exponential(1.0, size=count)
        self._fill_ints, self._fill_cells = fill_ints, fill_cells

    def integer(self, low: int, high: int) -> int:
        """One draw from [low, high], as ``rng.integers(low, high + 1)``; not kept."""
        self._fill_ints(low, high, 1, self._one, 0)
        return self._one.view[0]

    def integers(self, low: int, high: int, count: int) -> int:
        """``count`` draws from [low, high] onto ``ints``: their sum."""
        start = self.ints.take(count)
        self._fill_ints(low, high, count, self.ints, start)
        return sum(self.ints.view[start:start + count])

    def exponential(self, count: int) -> None:
        """``count`` standard exponential draws onto ``cells``."""
        self._fill_cells(count, self.cells, self.cells.take(count))


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
