"""The numeric kernels: exact sums, the span kernels and the one size switch."""

import ast
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import libm_reference as libm
from gentropies import _stable
from gentropies._stable import (
    divide_runs,
    escort_weights,
    exact_sum,
    gather,
    log2_power_sum,
    power_sum,
    segment_sums,
    weighted_log2_sum,
)
from gentropies.errors import Overflow

# Lengths on both sides of the size switch of `_stable` (the one-run fsum
# shortcut of the exact sum), and longer ones.
SUM_SIZES = (1, 2, 255, 256, 639, 640, 641, 1000, 2048, 6000)


SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
           1e-300, 1.0, 1e300, 1e308, 1.7976931348623157e308]


@st.composite
def finite_floats(draw):
    """Finite floats spread evenly over binary exponents, subnormals included."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from(SPECIAL))
    if kind == 1:
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    lo, hi = (-1074, 1024) if kind == 2 else (-60, 4)
    return math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(lo, hi)))


def test_sizes_straddle_the_switches():
    switch = _stable._FSUM_MAX
    assert switch in SUM_SIZES and switch + 1 in SUM_SIZES
    assert [name for name in vars(_stable) if name.endswith(("_MIN", "_MAX"))] == ["_FSUM_MAX"]


def _tile(pool, n, seed):
    """n entries drawn from ``pool`` with random signs, so terms cancel."""
    rng = np.random.default_rng(seed)
    x = np.array(pool, dtype=float)[rng.integers(0, len(pool), n)]
    return x * rng.choice([-1.0, 1.0], n)


def _outcome(fn, arg):
    try:
        value = fn(arg)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else value.hex()


@given(
    pool=st.lists(finite_floats(), min_size=1, max_size=10),
    n=st.sampled_from(SUM_SIZES),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum_bit_for_bit(pool, n, seed):
    x = _tile(pool, n, seed)
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())


@given(
    pool=st.lists(finite_floats(), min_size=1, max_size=6),
    special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
    n=st.sampled_from(SUM_SIZES),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_exact_sum_non_finite_like_fsum(pool, special, n, seed):
    x = _tile(pool, n, seed)
    rng = np.random.default_rng(seed)
    x[rng.integers(0, n, len(special))] = special
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())


def test_exact_sum_of_probabilities_is_fsum():
    x = np.random.default_rng(0).exponential(1.0, 2 ** 16)
    x /= x.sum()
    assert exact_sum(x) == math.fsum(x.tolist())
    assert exact_sum(x[::-1]) == exact_sum(x)


# Each kernel on one run, and the per-run libm loop of tests/libm_reference.py.
KERNELS = {
    "plogp_sum": (lambda p: weighted_log2_sum(p, [0, len(p)]), libm.plogp_sum),
    "log2_power_sum(0.5)": (lambda p: log2_power_sum(p, [0, len(p)], 0.5),
                            lambda part: libm.log2_power_sum(part, 0.5)),
    "log2_power_sum(100)": (lambda p: log2_power_sum(p, [0, len(p)], 100.0),
                            lambda part: libm.log2_power_sum(part, 100.0)),
    "power_sum(3)": (lambda p: power_sum(p, [0, len(p)], 3.0),
                     lambda part: libm.power_sum(part, 3.0)),
    "escort_weights(2)": (lambda p: escort_weights(p, [0, len(p)], 2.0),
                          lambda part: libm.escort_weights(part, 2.0)),
    "escort_weights(0.5)": (lambda p: escort_weights(p, [0, len(p)], 0.5),
                            lambda part: libm.escort_weights(part, 0.5)),
    "weighted_log2_sum": (lambda p: weighted_log2_sum(p, [0, len(p)], 2.0),
                          lambda part: libm.weighted_log2_sum(part, 2.0)),
}
# The one-run shortcut of the exact sum (``math.fsum``) and the blocked sum
# agree bit for bit.
EXACT_KERNELS = {
    "exact_sum": exact_sum,
    "segment_sums": lambda p: segment_sums(p, [0, len(p)]),
}


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("name", list(KERNELS))
def test_scalar_and_vector_kernels_agree(name, n):
    # numpy's log2/exp2/power may differ from the libm functions by an ulp
    # per term, so the kernels and the libm loops agree to a few ulps, not
    # bit for bit.
    kernel, reference = KERNELS[name]
    rng = np.random.default_rng(n)
    x = rng.exponential(1.0, n)
    x[rng.choice(n, n // 10, replace=False)] = 0.0
    p = x / x.sum()
    np.testing.assert_allclose(kernel(p), reference(p.tolist()),
                               rtol=64 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("kernel", list(EXACT_KERNELS.values()), ids=list(EXACT_KERNELS))
def test_scalar_and_vector_kernels_agree_exactly(monkeypatch, kernel, n):
    rng = np.random.default_rng(n)
    x = rng.exponential(1.0, n)
    x[rng.choice(n, n // 10, replace=False)] = 0.0
    p = x / x.sum()
    monkeypatch.setattr(_stable, "_FSUM_MAX", n)
    fsum = kernel(p)
    monkeypatch.setattr(_stable, "_FSUM_MAX", n - 1)
    assert kernel(p) == fsum


def _some_runs(draw, flat, bounds):
    """A few runs in a row of ``flat`` between ``bounds``: the slice that they
    cover, which may start past the first run and end before the last (empty,
    with no runs, when there are none), and their bounds in it."""
    lo = draw(st.integers(0, len(bounds) - 1))
    some = bounds[lo:draw(st.integers(lo, len(bounds) - 1)) + 1]
    return flat[some[0]:some[-1]], [b - some[0] for b in some]


@st.composite
def csr_arrays(draw):
    """A flat array of spans of 1-600 entries (straddling 256), each span a
    distribution with about 10 % exact zeros; some of its spans in a row, and
    their bounds (see `_some_runs`)."""
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 12), st.integers(200, 320), st.integers(1, 600)),
        min_size=1, max_size=8,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for m in lengths:
        x = rng.exponential(1.0, m)
        x[rng.random(m) < 0.1] = 0.0
        x[rng.integers(0, m)] = 1.0 + rng.random()  # one positive entry at least
        parts.append(x / x.sum())
    bounds = np.cumsum([0, *lengths]).tolist()
    return _some_runs(draw, np.concatenate(parts), bounds)


def _span_slices(out, bounds):
    return [out[i:j] for i, j in itertools.pairwise(bounds)]


def _each_alone(kernel, flat, bounds):
    return [kernel(flat[i:j].copy(), [0, j - i])[0] for i, j in itertools.pairwise(bounds)]


SPAN_KERNELS = {
    "plogp_sum": weighted_log2_sum,
    "log2_power_sum(0.5)": lambda p, bounds: log2_power_sum(p, bounds, 0.5),
    "log2_power_sum(100)": lambda p, bounds: log2_power_sum(p, bounds, 100.0),
    "power_sum(3)": lambda p, bounds: power_sum(p, bounds, 3.0),
    "escort_weights(2)": lambda p, bounds: _span_slices(escort_weights(p, bounds, 2.0), bounds),
    "escort_weights(0.5)": lambda p, bounds: _span_slices(escort_weights(p, bounds, 0.5), bounds),
    "weighted_log2_sum": lambda p, bounds: weighted_log2_sum(p, bounds, 0.5),
}


@pytest.mark.parametrize("kernel", list(SPAN_KERNELS.values()), ids=list(SPAN_KERNELS))
@given(data=csr_arrays())
@settings(max_examples=60, deadline=None)
def test_span_kernels_equal_each_slice_alone(kernel, data):
    """Each span's result is the kernel's result on a standalone copy of the
    span, bit for bit, whatever its length."""
    flat, bounds = data
    batched = kernel(flat, bounds)
    alone = _each_alone(kernel, flat, bounds)
    assert len(batched) == len(alone)
    for got, want in zip(batched, alone):
        np.testing.assert_array_equal(got, want)


@st.composite
def long_csr_arrays(draw, zero_spans=False):
    """Like `csr_arrays`, with several spans of 256 entries or more per batch
    (some of 640 or more), exponents spread over up to a few hundred
    binades, and, with ``zero_spans``, spans whose entries are all zero."""
    lengths = draw(st.lists(
        st.one_of(st.integers(1, 12), st.integers(250, 300), st.integers(632, 2000)),
        min_size=2, max_size=8,
    ).filter(lambda ls: sum(m >= 256 for m in ls) >= 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for m in lengths:
        x = rng.exponential(1.0, m) ** rng.uniform(1.0, 30.0)
        x[rng.random(m) < 0.1] = 0.0
        x[rng.integers(0, m)] = 1.0 + rng.random()
        x /= x.sum()
        if zero_spans and draw(st.booleans()):
            x[:] = 0.0
        parts.append(x)
    bounds = np.cumsum([0, *lengths]).tolist()
    return _some_runs(draw, np.concatenate(parts), bounds)


# An all-zero span is a valid input of these kernels only.
ZERO_SPAN_KERNELS = {"plogp_sum", "power_sum(3)"}


@pytest.mark.parametrize("name", list(SPAN_KERNELS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_span_kernels_equal_each_slice_alone_with_long_spans(name, data):
    """`test_span_kernels_equal_each_slice_alone` on batches of long spans."""
    kernel = SPAN_KERNELS[name]
    flat, bounds = data.draw(long_csr_arrays(zero_spans=name in ZERO_SPAN_KERNELS))
    batched = kernel(flat, bounds)
    alone = _each_alone(kernel, flat, bounds)
    assert len(batched) == len(alone)
    for got, want in zip(batched, alone):
        np.testing.assert_array_equal(got, want)


# The bounds contract: run k is flat[bounds[k]:bounds[k + 1]], the bounds
# running from 0 to len(flat); flat may be a view into a larger array.

BOUNDS_KERNELS = {
    **SPAN_KERNELS,
    "weighted_log2_sum(escort 2)": lambda p, bounds: weighted_log2_sum(p, bounds, 2.0),
    "segment_sums": segment_sums,
}


def _runs(lengths, seed, before=0, after=0):
    """Distributions of ``lengths`` entries (about 10 % zeros) end to end, a view
    between ``before`` and ``after`` other entries; and the runs' bounds in it."""
    rng = np.random.default_rng(seed)
    parts = [rng.exponential(1.0, before)]
    for m in filter(None, lengths):
        x = rng.exponential(1.0, m)
        x[rng.random(m) < 0.1] = 0.0
        x[rng.integers(0, m)] = 1.0 + rng.random()
        parts.append(x / x.sum())
    parts.append(rng.exponential(1.0, after))
    flat = np.concatenate(parts)
    return flat[before:len(flat) - after], np.cumsum([0, *lengths]).tolist()


@pytest.mark.parametrize("lengths", [[3, 5, 2], [300, 700], [3, 300, 1, 700]],
                         ids=["short", "long", "mixed"])
@pytest.mark.parametrize("name", list(BOUNDS_KERNELS))
def test_runs_past_0_and_before_the_end_equal_each_run_alone(name, lengths):
    kernel = BOUNDS_KERNELS[name]
    flat, bounds = _runs(lengths, len(lengths), before=7, after=300)
    got = kernel(flat, bounds)
    assert len(got) == len(lengths)
    for batched, alone in zip(got, _each_alone(kernel, flat, bounds)):
        np.testing.assert_array_equal(batched, alone)


# The kernels whose every run needs a positive entry: at the parent's (start,
# stop) spans an empty span raised ValueError, and the sums gave it 0.0.
MAX_FACTORED = {"log2_power_sum(0.5)", "log2_power_sum(100)", "escort_weights(2)",
                "escort_weights(0.5)", "weighted_log2_sum", "weighted_log2_sum(escort 2)"}


@pytest.mark.parametrize("lengths", [[3, 0, 2], [300, 0, 700], [3, 0, 300], [0, 5], [700, 0]],
                         ids=["short", "long", "mixed", "first", "last"])
@pytest.mark.parametrize("name", list(BOUNDS_KERNELS))
def test_a_zero_length_run_behaves_as_an_empty_span(name, lengths):
    kernel = BOUNDS_KERNELS[name]
    flat, bounds = _runs(lengths, 5, before=2, after=2)
    if name in MAX_FACTORED:
        with pytest.raises(ValueError, match="positive entry"):
            kernel(flat, bounds)
        return
    got, empty = kernel(flat, bounds), lengths.index(0)
    assert got[empty] == 0.0
    for k, (batched, alone) in enumerate(zip(got, _each_alone(kernel, flat, bounds))):
        if k != empty:
            np.testing.assert_array_equal(batched, alone)


@pytest.mark.parametrize("name", list(BOUNDS_KERNELS))
def test_alternating_short_and_long_runs_equal_each_run_alone(name):
    """3-entry runs and runs of 300-1000 entries in turn, in one call."""
    kernel = BOUNDS_KERNELS[name]
    rng = np.random.default_rng(22)
    lengths = [int(rng.integers(300, 1001)) if k % 2 else 3 for k in range(40)]
    flat, bounds = _runs(lengths, 23)
    got = kernel(flat, bounds)
    assert len(got) == len(lengths)
    for batched, alone in zip(got, _each_alone(kernel, flat, bounds)):
        np.testing.assert_array_equal(batched, alone)


ELEMENTWISE = {
    "log2": np.log2,
    "exp2": lambda x, out=None: np.exp2(-1e3 * x, out=out),
    "multiply": lambda x, out=None: np.multiply(x, 0.7, out=out),
    "multiply-array": lambda x, out=None: np.multiply(x, x, out=out),
    **{f"power({a})": (lambda x, out=None, a=a: np.power(x, a, out=out))
       for a in (0.5, 2.0, 3.0, 0.3, 100.0)},
}


@pytest.mark.parametrize("op", list(ELEMENTWISE.values()), ids=list(ELEMENTWISE))
def test_elementwise_bits_do_not_depend_on_the_slice(op):
    """The kernels apply numpy to the cells of many spans at once, and
    in place where it can; each span's terms must keep the bits that the span
    alone would get."""
    rng = np.random.default_rng(11)
    x = rng.exponential(1.0, 4096)
    x /= x.sum()
    whole = op(x).view(np.int64)
    for k in range(64):
        for m in (1, 7, 8, 9, 63, 255, 256, 1000):
            part = x[k:k + m]
            np.testing.assert_array_equal(op(part).view(np.int64), whole[k:k + m])
            np.testing.assert_array_equal(op(part.copy()).view(np.int64), whole[k:k + m])
    in_place = x.copy()
    np.testing.assert_array_equal(op(in_place, out=in_place).view(np.int64), whole)


def _fsum_each(values, bounds):
    """``math.fsum`` of each segment: the first failing segment raises."""
    return [math.fsum(values[i:j].tolist()) for i, j in itertools.pairwise(bounds)]


def _outcomes(sums, values, bounds):
    """``sums(values, bounds)`` in hex, or the type of the error it raises."""
    try:
        result = sums(values, bounds)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return ["nan" if math.isnan(v) else v.hex() for v in result]


def _segments(pool, lengths, seed):
    """Segments of the given lengths end to end, each tiled from its own
    subset of ``pool``, so that some segments hold huge entries and some
    do not; and their bounds."""
    rng = np.random.default_rng(seed)
    parts = []
    for k, m in enumerate(lengths):
        subset = rng.choice(len(pool), rng.integers(1, len(pool) + 1), replace=False)
        parts.append(_tile([pool[i] for i in subset], m, seed + k))
    return np.concatenate(parts), np.cumsum([0, *lengths]).tolist()


SEGMENT_LENGTHS = st.one_of(
    st.integers(0, 8), st.integers(250, 262), st.integers(760, 776), st.integers(1000, 1100)
)


@given(
    pool=st.lists(finite_floats(), min_size=1, max_size=10),
    lengths=st.lists(SEGMENT_LENGTHS, min_size=1, max_size=10),
    special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_segment_sums_are_fsum_per_segment(pool, lengths, special, seed):
    """Bit for bit, or the same error type; inf or nan lands in one segment.

    Huge entries of one sign overflow fsum's partials (``OverflowError``)
    and inf next to -inf is undefined (``ValueError``), so segments may
    fail in different ways: the first one in order decides.
    """
    x, bounds = _segments(pool, lengths, seed)
    if special and bounds[-1] > 0:
        rng = np.random.default_rng(seed)
        k = int(rng.choice(np.flatnonzero(lengths)))
        x[rng.choice(np.arange(bounds[k], bounds[k + 1]), len(special))] = special
    assert _outcomes(segment_sums, x, bounds) == _outcomes(_fsum_each, x, bounds)


FAILING_SEGMENTS = {
    "long overflow": [1e308, 1e308] * 200,
    "long inf - inf": [math.inf, -math.inf] + [1.0] * 300,
    "short overflow": [1e308, 1e308],
    "short inf - inf": [math.inf, -math.inf],
}


@pytest.mark.parametrize("order", [
    *itertools.permutations(FAILING_SEGMENTS),
    *itertools.permutations(["long overflow", "long inf - inf"]),  # long runs only
], ids=str)
def test_segment_sums_raise_what_the_first_failing_segment_raises(order):
    parts = [[0.5] * 300, *(FAILING_SEGMENTS[name] for name in order)]
    bounds = np.cumsum([0, *map(len, parts)]).tolist()
    x = np.array([v for part in parts for v in part])
    assert _outcomes(segment_sums, x, bounds) == _outcomes(_fsum_each, x, bounds)
    assert _outcomes(_fsum_each, x, bounds) in (OverflowError, ValueError)


# Runs that fail differently, with the error that ``math.fsum`` raises on each.
FAILING_RUNS = {
    "overflow": ([1e308, 1e308], OverflowError, "intermediate overflow in fsum"),
    "inf - inf": ([math.inf, -math.inf], ValueError, "-inf + inf in fsum"),
}


@pytest.mark.parametrize("lead", [0, 3, 300, _stable._BLOCK - 1, 40_000],
                         ids=["empty lead", "one list", "blocked", "across a block edge",
                              "past a block"])
@pytest.mark.parametrize("order", list(itertools.permutations(FAILING_RUNS)), ids=str)
def test_a_call_over_many_runs_raises_the_first_failing_runs_error(lead, order):
    """`_blocked_fsum` takes the runs in order once a value is inf, nan or huge, so one
    call raises its first failing run's error, type and message: with at most
    ``_FSUM_MAX`` entries (one list), with more, with the first failing run across the
    first block edge, and with the failures past the first ``_BLOCK`` entries, behind a
    lead run that crosses into the next block."""
    runs = [[0.5] * lead, *(FAILING_RUNS[name][0] for name in order), [1.0]]
    x = np.array([v for run in runs for v in run])
    assert (len(x) <= _stable._FSUM_MAX) == (lead <= 3)
    _, error, message = FAILING_RUNS[order[0]]
    with pytest.raises(error) as raised:
        segment_sums(x, _stable.bounds_of(list(map(len, runs))))
    assert type(raised.value) is error and str(raised.value) == message


@given(
    pool=st.lists(finite_floats(), min_size=1, max_size=10),
    lengths=st.lists(SEGMENT_LENGTHS, min_size=2, max_size=8),
    block=st.integers(5, 3000),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_binned_sums_with_chunks_across_segments(pool, lengths, block, seed):
    """Small blocks (at most ``_BLOCK`` entries) cross segment boundaries;
    every sum stays ``math.fsum`` bit for bit."""
    x, bounds = _segments(pool, lengths, seed)
    with mock.patch.object(_stable, "_BLOCK", block):
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())
        assert _outcomes(segment_sums, x, bounds) == _outcomes(_fsum_each, x, bounds)


@given(
    pool=st.lists(finite_floats(), min_size=1, max_size=10),
    lengths=st.lists(SEGMENT_LENGTHS, min_size=1, max_size=8),
    totals=st.lists(finite_floats(), min_size=8, max_size=8),
    block=st.integers(5, 3000),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_divided_runs_equal_one_division_by_the_spread_totals(pool, lengths, totals, block, seed):
    """Runs that blocks cross, empty runs and one run alone: `divide_runs` gives
    the bits of dividing by each run's total spread over its entries, into a new
    array or in place, under the caller's ``np.errstate(all="raise")``."""
    x, bounds = _segments(pool, lengths, seed)
    totals = np.array([t or 1.0 for t in totals[:len(lengths)]])
    with np.errstate(all="ignore"):
        want = (x / np.repeat(totals, lengths)).tobytes()
        whole = (x / totals[0]).tobytes()
    with mock.patch.object(_stable, "_BLOCK", block), np.errstate(all="raise"):
        assert divide_runs(x, totals, bounds).tobytes() == want
        assert divide_runs(x, totals[:1], [0, len(x)]).tobytes() == whole
        mine = x.copy()
        assert divide_runs(mine, totals, bounds, out=mine) is mine
        assert mine.tobytes() == want


def _blocked_sums(values, bounds):
    """`_stable._segment_fsum` on the segments between ``bounds``, every one
    of them long or short."""
    return _stable._segment_fsum(values, bounds)


# Segment contents: how each reaches the extraction levels and what they leave.
def _content(kind, m, rng):
    if kind == "narrow":  # a few binades: the levels take every bit
        x = rng.uniform(0.5, 8.0, m)
    elif kind == "wide":  # hundreds of binades: the levels leave a rest everywhere
        x = np.ldexp(rng.uniform(0.5, 1.0, m), rng.integers(-700, 300, m))
    elif kind == "tail":  # a few entries out of the levels' reach: a sparse rest
        x = rng.uniform(0.5, 8.0, m)
        x[rng.random(m) < 0.05] = np.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(-900, -100)))
    elif kind == "subnormal":
        x = rng.integers(1, 2 ** 52, m) * 5e-324
    else:  # all zero
        x = np.zeros(m)
    return x * rng.choice([-1.0, 1.0], m)


BLOCK_CONTENTS = ("narrow", "wide", "tail", "subnormal", "zero")


@given(
    parts=st.lists(st.tuples(st.sampled_from(BLOCK_CONTENTS), st.integers(0, 40)),
                   min_size=1, max_size=12),
    block=st.integers(5, 64),
    levels=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_blocked_sums_at_block_edges(parts, block, levels, seed):
    """Blocks of a few entries, each holding several segments: empty
    segments between non-empty ones, blocks of subnormals or zeros only,
    and blocks whose levels leave a rest, dense or sparse.  Every sum is
    ``math.fsum`` bit for bit."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.zeros(0), *(_content(kind, m, rng) for kind, m in parts)])
    bounds = np.cumsum([0, *(m for _, m in parts)]).tolist()
    with mock.patch.object(_stable, "_BLOCK", block), \
            mock.patch.object(_stable, "_LEVELS", levels), \
            mock.patch.object(_stable, "_FSUM_MAX", 0):
        assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())
        assert _outcomes(_blocked_sums, x, bounds) == _outcomes(_fsum_each, x, bounds)


@given(
    kinds=st.lists(st.sampled_from(BLOCK_CONTENTS), min_size=1, max_size=4),
    lengths=st.lists(st.one_of(st.integers(0, 3),
                               st.integers(_stable._BLOCK - 300, _stable._BLOCK + 300)),
                     min_size=1, max_size=4),
    seed=st.integers(0, 2 ** 32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_sums_past_one_block(kinds, lengths, seed):
    """Inputs longer than ``_BLOCK``: blocks that start and end inside a
    segment, and bounds on the rest of one segment that add up over several
    blocks."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.zeros(0)] + [_content(kinds[i % len(kinds)], m, rng)
                                        for i, m in enumerate(lengths)])
    bounds = np.cumsum([0, *lengths]).tolist()
    assert _outcome(exact_sum, x) == _outcome(math.fsum, x.tolist())
    assert _outcomes(_blocked_sums, x, bounds) == _outcomes(_fsum_each, x, bounds)
    assert _outcomes(segment_sums, x, bounds) == _outcomes(_fsum_each, x, bounds)


def test_levels_take_the_rest_whole_only_where_its_sum_is_exact():
    """A tie that the last bit of one entry breaks: 1023 entries of
    1 + 768 * 2**-52, each leaving 3/4 of a unit after the first level, and
    one of 2**-35 * (1 + 2**-52).  The sum of the first level's rests
    cannot hold that last bit; a second level keeps it."""
    x = np.full(1024, 1.0 + 768 * 2.0 ** -52)
    x[517] = 2.0 ** -35 * (1.0 + 2.0 ** -52)
    without = x.copy()
    without[517] = 2.0 ** -35
    assert math.fsum(x.tolist()) != math.fsum(without.tolist())
    assert exact_sum(x) == math.fsum(x.tolist())


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("run", [
    [1.0, 2.0 ** -53, 2.0 ** -300],  # up from a power of two
    [1.5, 2.0 ** -53, 2.0 ** -300],
    [1.0, -2.0 ** -54, -2.0 ** -300],  # down from one: the narrower gap
], ids=["power-up", "even-up", "power-down"])
def test_rest_that_the_pieces_cannot_certify_goes_to_fsum(run, sign, levels):
    """With one level the pieces hold only the head, and the rest reaches
    the rounding margin; from two levels on they make an exact tie between
    two floats, which the rest 2**-300 breaks.  Either way the rounding of
    the pieces cannot stand, and the run goes to ``math.fsum``."""
    run = [sign * v for v in run]
    x = np.array(run * 3)
    expected = math.fsum(run)
    assert expected != math.fsum(run[:2])
    with mock.patch.object(_stable, "_BLOCK", 3), mock.patch.object(_stable, "_LEVELS", levels):
        assert _stable._segment_fsum(x, [0, 3, 6, 9]).tolist() == [expected] * 3
        assert _stable._segment_fsum(x, [0, 9]).tolist() == [math.fsum(x.tolist())]
        with mock.patch.object(_stable, "_FSUM_MAX", 0):
            assert _stable._segment_fsum(x[:3], [0, 3]).tolist() == [expected]


def test_bins_of_one_run_round_every_chunk():
    """2**20 entries of one run: a quarter some 670 binades below the rest,
    so that every block's levels leave a rest, which the bound must cover
    over all 32 blocks; the others in [256, 512), and last a few in [2, 4),
    whose low bits the pieces must keep."""
    rng = np.random.default_rng(18)
    x = rng.uniform(256.0, 512.0, 2 ** 20)
    x[::4] = rng.uniform(1.0, 2.0, 2 ** 18) * 1e-200
    x[-1000:] = rng.uniform(2.0, 4.0, 1000)
    assert exact_sum(x) == math.fsum(x.tolist())
    assert segment_sums(x, [0, 5, len(x)]).tolist() == [
        math.fsum(x[:5].tolist()), math.fsum(x[5:].tolist())]


class _CountingMath:
    """The ``math`` module, counting its ``fsum`` calls."""

    def __init__(self):
        self.fsums = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, values):
        self.fsums += 1
        return math.fsum(values)


def _rounded(values, counts, block=_stable._BLOCK):
    """`_stable._segment_fsum` of the runs of ``counts`` in blocks of ``block``: the sums in
    hex, the number of pieces per run of each block that `_round` rounds, in block order
    (one call per block), and the number of ``math.fsum`` calls."""
    shapes, counting, real = [], _CountingMath(), _stable._round

    def spy(out, segs, pieces, *args):
        shapes.append(len(pieces))
        return real(out, segs, pieces, *args)

    with mock.patch.multiple(_stable, _round=spy, math=counting, _BLOCK=block, _FSUM_MAX=0):
        sums = _stable._segment_fsum(
            np.array(values, dtype=float), [0, *itertools.accumulate(counts)])
    return [v.hex() for v in sums], shapes, counting.fsums


# (values, run lengths, pieces per run of each block, math.fsum calls): the
# runs of one block are rounded in numpy, an add that TwoSum finds inexact
# sends its run to one math.fsum, and a rest to two (its pieces, then the
# residual past their sum).
ROUNDING_CASES = {
    "one piece": ([1.0, 2.0 ** -48, 0.5, 0.25, 0.75], [2, 3], [1], 0),
    "two pieces": ([0.5, 0.25, 0.125, 0.375, 0.1, 0.3], [3, 3], [2], 0),
    "three pieces": ([1.0, 2.0 ** -60, 1.0, 0.5], [2, 2], [3], 0),
    # 2**-60 + 2**-80 and the third level's 2**-132 span more than 53 bits
    "three pieces, an inexact add": (
        [1.0, 2.0 ** -60, 2.0 ** -80 * (1.0 + 2.0 ** -52), 1.0, 0.5, 0.25], [3, 3], [3], 1),
    "zero-length runs": ([0.5, 0.25, 0.125, 0.375], [0, 2, 0, 0, 2, 0], [2], 0),
    "all -0.0 runs": ([-0.0, -0.0, 1.0, 2.0, -0.0], [2, 2, 1], [2], 0),  # fsum gives +0.0
    "a rest": ([1.0, 2.0 ** -300, 1.5, 2.0 ** -400], [2, 2], [3], 4),
}


@pytest.mark.parametrize("case", list(ROUNDING_CASES))
def test_runs_of_one_block_are_rounded_as_fsum(case):
    values, counts, shapes, fsums = ROUNDING_CASES[case]
    bounds = np.cumsum([0, *counts]).tolist()
    want = [math.fsum(values[i:j]).hex() for i, j in itertools.pairwise(bounds)]
    assert _rounded(values, counts) == (want, shapes, fsums)


@pytest.mark.parametrize("block, counts, straddling", [
    (4, [3, 3, 3], 2),  # runs 1 and 2 each cross one block edge
    (4, [1, 10, 1], 1),  # run 1 fills a block and reaches into two more
    (_stable._BLOCK, [_stable._BLOCK - 3, 6, 300], 1),
])
def test_runs_across_block_edges_take_fsum_of_their_pieces(block, counts, straddling):
    """A run with pieces in several blocks takes one ``math.fsum``; the others
    are rounded in numpy."""
    rng = np.random.default_rng(len(counts) + block)
    values = rng.uniform(0.5, 1.0, sum(counts)) * rng.choice([-1.0, 1.0], sum(counts))
    bounds = np.cumsum([0, *counts]).tolist()
    want = [math.fsum(values[i:j].tolist()).hex() for i, j in itertools.pairwise(bounds)]
    sums, shapes, fsums = _rounded(values, counts, block)
    assert (sums, fsums) == (want, straddling)
    assert len(shapes) == -(-sum(counts) // block)


def test_runs_of_at_most_fsum_max_entries_take_one_fsum_each():
    """Runs of at most ``_FSUM_MAX`` entries in all, in one block, are one
    ``math.fsum`` each over one list: no blocked sum (``_round`` refuses here),
    the kept entries of the streamed kernels included."""
    x, bounds = _runs([3, 1, 0, 120, 2], 41)
    assert bounds[-1] <= _stable._FSUM_MAX
    want = [math.fsum(x[i:j].tolist()) for i, j in itertools.pairwise(bounds)]
    squares = [math.fsum((x[i:j] ** 2).tolist()) for i, j in itertools.pairwise(bounds)]
    with mock.patch.object(_stable, "_round", None):
        assert segment_sums(x, bounds).tolist() == want
        assert power_sum(x, bounds, 2.0).tolist() == squares


def test_a_suite_batch_rounds_its_runs_without_fsum():
    """Hundreds of runs of 2 to 64 probabilities in one block, as `run_suite`'s
    joints reach `segment_sums` and `log2_power_sum`: no run of the two-level
    sums takes a ``math.fsum`` call of its own, and at most a few of the power
    sums (an add that TwoSum finds inexact)."""
    rng = np.random.default_rng(24)
    counts = rng.integers(2, 65, 300)
    bounds = np.cumsum([0, *counts]).tolist()
    x = rng.uniform(0.01, 1.0, bounds[-1])
    x[rng.random(x.size) < 0.1] = 0.0
    x[bounds[:-1]] = 0.5  # every run has a positive entry
    x /= np.repeat(np.add.reduceat(x, bounds[:-1]), counts)
    want = [math.fsum(x[i:j].tolist()) for i, j in itertools.pairwise(bounds)]
    powers = log2_power_sum(x, bounds, 2.0).tolist()
    counting = _CountingMath()
    with mock.patch.object(_stable, "math", counting):
        assert segment_sums(x, bounds).tolist() == want
        assert counting.fsums == 0
        assert log2_power_sum(x, bounds, 2.0).tolist() == powers
    assert counting.fsums < len(counts) // 20


def _traced_peak(fn) -> int:
    """The most bytes that ``fn()`` holds at once, as tracemalloc (which
    sees numpy's buffers) counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sums_hold_no_input_sized_temporary():
    """The blocked sum works in buffers of one block: on 2**20 entries (8 MB)
    its peak stays under 2 MB, on one segment or on 1024 rows."""
    rng = np.random.default_rng(15)
    x = rng.exponential(1.0, 2 ** 20)
    x[rng.random(x.size) < 0.1] = 0.0
    x /= x.sum()
    bounds = np.cumsum([0, *rng.integers(256, 1025, 1024)]).tolist()
    rows = x[:bounds[-1]]
    wide = x ** 50.0  # over hundreds of binades: the levels leave a rest
    for fn in (lambda: exact_sum(x), lambda: exact_sum(wide),
               lambda: segment_sums(rows, bounds), lambda: segment_sums(wide[:bounds[-1]], bounds)):
        assert _traced_peak(fn) < 2 * 2 ** 20


def test_thousands_of_runs_round_once_without_an_input_sized_temporary():
    """8192 runs of 256 entries (16 MB) in one call: each block's runs are
    rounded as the block ends, once each, and the peak stays under 6 MB, on
    probabilities and on their 50th powers."""
    rng = np.random.default_rng(16)
    x = rng.exponential(1.0, 2 ** 21)
    x[rng.random(x.size) < 0.1] = 0.0
    x /= x.sum()
    bounds = list(range(0, x.size + 1, 256))
    for values in (x, x ** 50.0):
        expected = [math.fsum(values[i:j].tolist()) for i, j in itertools.pairwise(bounds)]
        assert segment_sums(values, bounds).tolist() == expected
        assert _traced_peak(lambda: segment_sums(values, bounds)) < 6 * 2 ** 20


@pytest.mark.parametrize("cells", [2, 5])
def test_many_short_runs_hold_one_block_of_pieces(cells):
    """40,000 runs of 2 or 5 cells: each block's runs are rounded as the block
    ends, so the sum holds one block's pieces, not every run's, and peaks
    under 2 MiB (holding them all until the last block took about 3 MB)."""
    x = np.random.default_rng(cells).exponential(1.0, 40_000 * cells)
    bounds = np.arange(0, x.size + 1, cells)
    expected = [math.fsum(x[i:i + cells].tolist()) for i in range(0, x.size, cells)]
    assert segment_sums(x, bounds).tolist() == expected
    assert _traced_peak(lambda: segment_sums(x, bounds)) < 2 * 2 ** 20


def test_uncertified_run_sums_a_block_at_a_time():
    """A 2**20-entry run whose pieces tie with a nonzero rest (see
    `test_rest_that_the_pieces_cannot_certify_goes_to_fsum`) goes to
    ``math.fsum`` a block at a time: its peak stays under 2 MB."""
    x = np.zeros(2 ** 20)
    x[:3] = 1.0, 2.0 ** -53, 2.0 ** -300
    assert exact_sum(x) == math.fsum(x.tolist()) == 1.0 + 2.0 ** -52
    assert _traced_peak(lambda: exact_sum(x)) < 2 * 2 ** 20


def test_non_finite_runs_sum_a_block_at_a_time():
    """An inf or nan sends the sum to ``math.fsum``, a block at a time: on
    2**20 entries, one run or two, the peak stays under 2 MB."""
    x = np.zeros(2 ** 20)
    x[-1] = math.inf
    assert exact_sum(x) == math.inf
    assert _traced_peak(lambda: exact_sum(x)) < 2 * 2 ** 20
    x[-1] = math.nan
    halves = [0, 2 ** 19, 2 ** 20]
    assert [str(s) for s in segment_sums(x, halves)] == ["0.0", "nan"]
    assert _traced_peak(lambda: segment_sums(x, halves)) < 2 * 2 ** 20


@pytest.mark.parametrize("block, buffers", [(_stable._BLOCK, 6), (2 ** 13, 8)])
def test_streamed_kernels_hold_no_input_sized_temporary(block, buffers):
    """The power and p log p sums walk their input a block of at most
    ``_BLOCK`` entries at a time: on a held 2**18-entry array with 10 %
    zeros (2 MiB), as one span or as about 400 rows, each peaks under a few
    block-sized buffers (1.5 MiB at the real ``_BLOCK``, 512 KiB at 2**13)."""
    rng = np.random.default_rng(17)
    x = rng.exponential(1.0, 2 ** 18)
    x[rng.random(x.size) < 0.1] = 0.0
    x /= x.sum()
    bounds = np.cumsum([0, *rng.integers(256, 1025, 1024)])
    rows = bounds[bounds <= x.size]
    with mock.patch.object(_stable, "_BLOCK", block):
        for runs in ([0, x.size], rows):
            for fn in (lambda: weighted_log2_sum(x, runs), lambda: power_sum(x, runs, 2.0),
                       lambda: power_sum(x, runs, 50.0)):
                assert _traced_peak(fn) < buffers * 8 * block


def test_max_factored_kernels_hold_one_array_of_logs():
    """The max-factored power sum and the escort need each run's maximum before
    any term, so they hold the logs of the positive entries whole, written over
    their compressed copy and never over the input: on a read-only 2**18-entry
    array with 10 % zeros (2 MiB), the sum peaks under 1.5x the input and the
    escort, whose output is input-sized too, under 2.5x."""
    rng = np.random.default_rng(17)
    x = rng.exponential(1.0, 2 ** 18)
    x[rng.random(x.size) < 0.1] = 0.0
    x /= x.sum()
    x.flags.writeable = False
    assert _traced_peak(lambda: log2_power_sum(x, [0, x.size], 2.0)) < 1.5 * x.nbytes
    assert _traced_peak(lambda: escort_weights(x, [0, x.size], 2.0)) < 2.5 * x.nbytes
    quarters = np.full(4, 0.25)  # all positive: nothing is compressed
    quarters.flags.writeable = False
    assert log2_power_sum(quarters, [0, 4], 2.0) == [-2.0]


def _binade_edge_runs():
    """Runs of the positive float neighbours of powers of two, from the subnormal 5e-324
    up past 1: three neighbours in either order, one alone, one twice, and the outer two."""
    runs = []
    for e in (-1074, -1073, -1060, -1023, -1022, -1021, -600, -53, -2, -1, 0, 1, 100):
        edge = math.ldexp(1.0, e)
        below, above = float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, 2.0 * edge))
        runs += [[below, edge, above], [above, edge, below], [edge], [edge, edge],
                 [above, below]]
    return [[v for v in run if v > 0.0] for run in runs]  # nextafter(5e-324, 0) is 0


@pytest.mark.parametrize("alpha", [0.5, 2.0, 50.0, 300.0, -3.0])
def test_the_largest_scaled_log_is_that_of_the_extreme_entry(alpha):
    """The maximum m that the max-factored kernels take over each run's alpha * log2(p)
    is alpha * log2 of the run's largest p (alpha > 0) or of its least positive p
    (alpha < 0), bit for bit: numpy's log2 keeps the order of its inputs.  So a kernel
    can take m from the probabilities before any log, with no array of logs."""
    runs = _binade_edge_runs()
    logs = np.log2(np.concatenate([np.array(run) for run in runs]))
    bounds = _stable.bounds_of([len(run) for run in runs])
    want = _stable._scaled_powers(logs, bounds, alpha)[0]
    got = alpha * np.log2(np.array([max(run) if alpha > 0.0 else min(run) for run in runs]))
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_max_factored_kernels_on_many_runs_hold_no_spread_of_the_maxima():
    """On about 400 runs of the same array, each run's maximum (and the escort's
    sum) is applied a block at a time, so the peaks stay those of one run: the
    input-sized repeat of the maxima is gone (it peaked at 1.9x and 2.9x the input)."""
    rng = np.random.default_rng(17)
    bounds = np.cumsum([0, *rng.integers(256, 1025, 1024)])
    rows = bounds[bounds <= 2 ** 18]
    x = rng.exponential(1.0, rows[-1])
    x[rng.random(x.size) < 0.1] = 0.0
    x[rows[:-1]] = 1.0  # every run has a positive entry
    x /= np.repeat(np.add.reduceat(x, rows[:-1]), np.diff(rows))
    x.flags.writeable = False
    assert _traced_peak(lambda: log2_power_sum(x, rows, 2.0)) < 1.5 * x.nbytes
    assert _traced_peak(lambda: escort_weights(x, rows, 2.0)) < 2.5 * x.nbytes


@pytest.mark.parametrize("name", sorted(MAX_FACTORED))
def test_max_factored_runs_across_block_edges_equal_each_run_alone(name):
    """With blocks of 64 entries the maxima and sums go a block at a time: blocks
    inside one run, blocks holding the ends of several runs, runs inside one block."""
    kernel = BOUNDS_KERNELS[name]
    flat, bounds = _runs([3, 200, 1, 64, 5, 130, 2, 64], 31, before=5, after=70)
    with mock.patch.object(_stable, "_BLOCK", 64):
        got = kernel(flat, bounds)
    for batched, alone in zip(got, _each_alone(kernel, flat, bounds)):
        np.testing.assert_array_equal(batched, alone)


# The streamed kernels against math.fsum of numpy's terms over the positive
# entries of each span, with ``_BLOCK`` small and every nonempty span long.

def _power_cases(*alphas):
    return {f"power_sum({a:g})": (lambda p, bounds, a=a: power_sum(p, bounds, a),
                                  lambda x, a=a: np.power(x, a)) for a in alphas}


STREAMED = {
    "plogp_sum": (weighted_log2_sum, lambda x: np.log2(x) * x),
    **_power_cases(3.0, 0.5, -2.0),
}


def _streamed_outcomes(name, flat, bounds, block, levels=_stable._LEVELS):
    """The kernel's results in hex, or the type of its error (`Overflow` as
    ``OverflowError``), with ``_BLOCK`` at ``block`` and every sum taking
    the blocked sum; and the same from ``math.fsum`` of
    numpy's terms, span by span, the first failing span deciding."""
    kernel, terms = STREAMED[name]
    with mock.patch.object(_stable, "_BLOCK", block), \
            mock.patch.object(_stable, "_LEVELS", levels), \
            mock.patch.object(_stable, "_FSUM_MAX", 0), np.errstate(over="ignore"):
        try:
            got = [v.hex() for v in kernel(flat, bounds)]
        except Overflow:
            got = OverflowError
        except (OverflowError, ValueError) as exc:
            got = type(exc)
    want = []
    for i, j in itertools.pairwise(bounds):
        keep = flat[i:j] > 0.0
        with np.errstate(over="ignore"):
            values = terms(flat[i:j][keep]).tolist()
        try:
            want.append(math.fsum(values).hex())
        except (OverflowError, ValueError) as exc:
            want = type(exc)
            break
    return got, want


@pytest.mark.parametrize("name", list(STREAMED))
@given(
    parts=st.lists(st.tuples(st.sampled_from(["dense", "sparse", "zero"]), st.integers(0, 40)),
                   min_size=1, max_size=10),
    block=st.integers(1, 24),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_streamed_kernels_at_block_edges(name, parts, block, data):
    """Spans of dense entries, of a few positive ones among zeros and of
    zeros only, end to end, from some span in a row (a view that may start
    past the first), in blocks of a few entries: runs with no positive entry in
    a block, all-zero blocks, and spans that start and end anywhere in one."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    cells = []
    for kind, m in parts:
        x = rng.exponential(1.0, m) ** rng.uniform(1.0, 8.0)
        x[rng.random(m) < {"dense": 0.1, "sparse": 0.9, "zero": 1.0}[kind]] = 0.0
        cells.append(x)
    flat = np.concatenate([np.zeros(0), *cells])
    flat, bounds = _some_runs(data.draw, flat, np.cumsum([0, *(m for _, m in parts)]).tolist())
    got, want = _streamed_outcomes(name, flat, bounds, block)
    assert got == want


# Blocks of 8 entries: (span lengths, a range of entries set to zero).
EDGE_CASES = {
    "n = block - 1": ([7], (0, 0)),
    "n = block": ([8], (0, 0)),
    "n = block + 1": ([9], (0, 0)),
    "spans ending on block edges": ([3, 5, 8, 16], (0, 0)),
    "a run with no positive entry in a block": ([3, 3, 2, 8], (3, 6)),
    "an all-zero block inside a span": ([2, 24, 6], (8, 16)),
}


@pytest.mark.parametrize("name", list(STREAMED))
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_streamed_kernels_on_block_edges(name, case):
    lengths, (z0, z1) = EDGE_CASES[case]
    rng = np.random.default_rng(len(lengths))
    flat = rng.exponential(1.0, sum(lengths))
    flat[rng.random(flat.size) < 0.1] = 0.0
    flat[z0:z1] = 0.0
    bounds = np.cumsum([0, *lengths]).tolist()
    got, want = _streamed_outcomes(name, flat, bounds, 8)
    assert got == want


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_streamed_uncertified_runs_recompute_their_terms(levels):
    """Terms that tie (see `test_rest_that_the_pieces_cannot_certify_goes_to_fsum`),
    with zeros among their cells: the pieces cannot certify a run's rounding,
    so ``math.fsum`` takes the run's terms again, recomputed from its cells.
    x**1 is x: the terms are the tie itself."""
    run = [1.0, 2.0 ** -53, 2.0 ** -300]
    expected = math.fsum(run)
    assert expected != math.fsum(run[:2])
    flat = np.array([1.0, 0.0, 2.0 ** -53, 2.0 ** -300] * 3)
    kernel = _power_cases(1.0)["power_sum(1)"][0]
    with mock.patch.object(_stable, "_BLOCK", 4), mock.patch.object(_stable, "_LEVELS", levels), \
            mock.patch.object(_stable, "_FSUM_MAX", 0), \
            mock.patch.object(_stable, "_fsum", wraps=_stable._fsum) as fallback:
        assert kernel(flat, [0, 4, 8, 12]).tolist() == [expected] * 3
        assert fallback.call_count == 3


@pytest.mark.parametrize("order", list(itertools.permutations(["fine", "overflow", "inf"])))
def test_streamed_kernels_raise_what_the_first_failing_span_raises(order):
    """Huge finite terms overflow ``math.fsum`` (`power_sum` raises ``OverflowError``),
    and an inf term makes an inf sum: in any order, the batch gives what the
    spans give alone, the first failing span deciding."""
    spans_of_kind = {
        "fine": [0.25, 0.0, 0.5, 0.25],
        "overflow": [2.0 ** -511] * 4,  # x**-2 = 2**1022: four of them overflow
        "inf": [5e-324, 0.0, 5e-324, 0.5],  # x**-2 = inf
    }
    flat = np.array([v for kind in order for v in spans_of_kind[kind]])
    bounds = [0, 4, 8, 12]
    for name in STREAMED:
        got, want = _streamed_outcomes(name, flat, bounds, 2)
        assert got == want, name
    assert _streamed_outcomes("power_sum(-2)", flat, bounds, 2)[0] == OverflowError


# Batches of short spans: every span as alone, and against the per-span libm
# loops of tests/libm_reference.py.

ALPHAS = (-3.0, 0.5, 2.0, 3.0, 100.0)


@st.composite
def short_batches(draw):
    """0-300 spans below 256 entries end to end and their bounds, and some of
    them in a row with their bounds (see `_some_runs`): zero-laden spans, spans
    with a single positive entry, entries spread over up to a few hundred
    binades, subnormals and, in some batches, spans with no positive entry."""
    n = draw(st.integers(0, 300))
    spread = draw(st.sampled_from([1.0, 5.0, 30.0]))
    subnormals, empties = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for _ in range(n):
        longest = 12 if rng.random() < 0.9 else 256
        m = int(rng.integers(1, longest))
        x = rng.exponential(1.0, m) ** spread
        kind = rng.integers(0, 4)
        if kind == 0:
            x[rng.random(m) < 0.5] = 0.0
        elif kind == 1:  # a single positive entry
            x[:] = 0.0
            x[rng.integers(0, m)] = rng.random() + 0.5
        if subnormals and rng.random() < 0.2:
            x[rng.integers(0, m)] = math.ldexp(rng.random(), -1022 - int(rng.integers(1, 52)))
        if empties and rng.random() < 0.02:
            x[:] = 0.0
        parts.append(x)
    bounds = np.cumsum([0, *map(len, parts)]).tolist()
    lo = 0 if rng.random() < 0.5 else int(rng.integers(0, n + 1))
    hi = n if rng.random() < 0.5 else int(rng.integers(lo, n + 1))
    flat = np.concatenate(parts) if parts else np.zeros(0)
    return flat, bounds, flat[bounds[lo]:bounds[hi]], [b - bounds[lo] for b in bounds[lo:hi + 1]]


def _result(call):
    """``call()``, or the type of the error that it raises."""
    try:
        return call()
    except (ValueError, OverflowError, Overflow) as exc:
        return type(exc)


def _per_span(fn, spans):
    """``fn(i, j)`` on each span in order, or the type of the first span's error."""
    return _result(lambda: [fn(i, j) for i, j in spans])


def _bits(values):
    """Results in hex (an error type as it is)."""
    if isinstance(values, type):
        return values
    return [[v.hex() for v in value] if isinstance(value, list) else value.hex()
            for value in values]


def _floats(values):
    """Results, a float or a list of floats each, end to end."""
    return np.array([v for value in values for v in np.atleast_1d(value)], dtype=float)


def _magnitudes(name, flat, alpha, spans, want):
    """Per result of ``want``, the size that an error of a few ulps per term is
    relative to:

    - `power_sum`: the result, a sum of positive terms;
    - `plogp_sum`: the sum of |terms|, which may cancel;
    - the max-factored kernels, whose terms are 2**(alpha log2 x - m): an ulp of
      difference in log2 x moves alpha log2 x by up to |alpha| L, L the largest
      |log2 x| of the span, an absolute error of `log2_power_sum` (to which its
      own log2 adds 1) and a relative one of each escort weight, and so of each
      term w log2 x of `weighted_log2_sum`.
    """
    out = []
    for (i, j), value in zip(spans, want):
        pos = flat[i:j] > 0.0
        x = flat[i:j][pos]
        big = abs(alpha) * float(np.abs(np.log2(x)).max(initial=0.0))
        if name == "power_sum":
            out.append(abs(value))
        elif name == "log2_power_sum":
            out.append(abs(value) + big + 1.0)
        elif name == "escort_weights":
            out += [abs(w) * (1.0 + big) for w in value]
        elif name == "weighted_log2_sum":
            w = np.array(libm.escort_weights(flat[i:j].tolist(), alpha))[pos]
            out.append(math.fsum(np.abs(w * np.log2(x)).tolist()) * (1.0 + big))
        else:
            out.append(math.fsum(np.abs(x * np.log2(x)).tolist()))
    return np.array(out)


def _short_cases(flat, alpha):
    """kernel name -> (the kernel on ``bounds``, the libm reference on span (i, j))."""

    def part(i, j):
        return flat[i:j].tolist()

    def escorts(bounds):
        return [w.tolist() for w in _span_slices(escort_weights(flat, bounds, alpha), bounds)]

    return {
        "log2_power_sum": (lambda bounds: log2_power_sum(flat, bounds, alpha),
                           lambda i, j: libm.log2_power_sum(part(i, j), alpha)),
        "power_sum": (lambda bounds: power_sum(flat, bounds, alpha),
                      lambda i, j: libm.power_sum(part(i, j), alpha)),
        "plogp_sum": (lambda bounds: weighted_log2_sum(flat, bounds),
                      lambda i, j: libm.plogp_sum(part(i, j))),
        "escort_weights": (escorts, lambda i, j: libm.escort_weights(part(i, j), alpha)),
        "weighted_log2_sum": (lambda bounds: weighted_log2_sum(flat, bounds, alpha),
                              lambda i, j: libm.weighted_log2_sum(part(i, j), alpha)),
    }


@pytest.mark.parametrize("alpha", ALPHAS)
@given(data=short_batches())
@settings(max_examples=40, deadline=None)
def test_short_batches_equal_the_per_span_reference(alpha, data):
    """Every short span of a batch gets the bits that the package gives it
    alone, or the batch raises the error type of the first failing span; and
    the per-span libm loop gives the same error, or agrees to a few ulps."""
    flat, bounds, part, some = data
    spans = list(itertools.pairwise(some))
    for name, (kernel, reference) in _short_cases(part, alpha).items():
        got = _result(lambda: kernel(some))
        alone = _per_span(lambda i, j: _short_cases(part[i:j], alpha)[name][0]([0, j - i])[0],
                          spans)
        assert _bits(got) == _bits(alone), name
        want = _per_span(reference, spans)
        if isinstance(got, type) or isinstance(want, type):
            assert got == want, name
        else:
            size = _magnitudes(name, part, alpha, spans, want)
            got, want = _floats(got), _floats(want)
            off = np.abs(got - want) > 64 * np.finfo(float).eps * size
            assert not off.any(), (name, got[off], want[off])
    if alpha == ALPHAS[0]:  # segment_sums does not take alpha
        sums = list(itertools.pairwise(bounds))
        assert _bits(_result(lambda: segment_sums(flat, bounds))) == _bits(
            _per_span(lambda i, j: math.fsum(flat[i:j].tolist()), sums))


@pytest.mark.parametrize("name", ["log2_power_sum", "power_sum", "plogp_sum",
                                  "weighted_log2_sum", "escort_weights"])
def test_no_spans(name):
    """Bounds ``[0]`` over an empty array, no runs: every kernel gives no result."""
    flat = np.zeros(0)
    kernel, _ = _short_cases(flat, 2.0)[name]
    assert list(kernel([0])) == []
    assert segment_sums(flat, [0]).tolist() == []


def test_power_sum_overflow_inside_a_short_batch():
    """A term past the float range (inf from numpy, an error from float **):
    a span that overflows makes the whole batch raise ``OverflowError``, as that
    span does alone, and so does a long run, with no warning."""
    flat = np.array([0.5, 0.5, 1e-120, 1.0, 0.25, 0.75])
    with pytest.raises(OverflowError, match=r"power sum with exponent -3\.0 overflowed"):
        power_sum(flat, [0, 2, 4, 6], -3.0)
    with pytest.raises(OverflowError, match=r"power sum with exponent -3\.0 overflowed"):
        power_sum(np.resize(flat, 300), [0, 300], -3.0)
    with pytest.raises(OverflowError, match=r"power sum with exponent -3\.0 overflowed"):
        libm.power_sum(flat[2:4].tolist(), -3.0)
    # the runs before the overflowing span, or after it
    assert power_sum(flat[:2], [0, 1, 2], -3.0).tolist() == [libm.power_sum([0.5], -3.0)] * 2
    assert power_sum(flat[4:], [0, 1, 2], -3.0).tolist() == [
        libm.power_sum([0.25], -3.0), libm.power_sum([0.75], -3.0)]


# `gather`: runs picked by index from the runs between ``GATHER_BOUNDS``, whose run 1 is empty.
GATHER_BOUNDS = [0, 2, 2, 5, 7, 10]


def _gathered(values, runs):
    """The picked runs' slices end to end, and their bounds there."""
    slices = [values[GATHER_BOUNDS[k]:GATHER_BOUNDS[k + 1]] for k in runs]
    return np.concatenate([values[:0], *slices]), [0, *itertools.accumulate(map(len, slices))]


@pytest.mark.parametrize("runs", [[3], [2, 3, 4], [0, 1, 2], [0, 2], [1, 2]])
def test_gather_of_adjacent_runs_is_a_view(runs):
    """Runs that each start where the one before stops, also across the empty
    run, come back as a view."""
    values = np.arange(10.0)
    cells, bounds = gather(values, GATHER_BOUNDS, runs)
    want, want_bounds = _gathered(values, runs)
    assert np.shares_memory(cells, values)
    assert cells.tolist() == want.tolist() and bounds.tolist() == want_bounds


@pytest.mark.parametrize("runs", [
    [0, 3], [4, 0], [3, 3], [4, 3, 2, 1, 0],
    np.diff(GATHER_BOUNDS).argsort(kind="stable"),  # the order of `row_sums`
], ids=str)
def test_gather_of_other_runs_concatenates_their_slices(runs):
    """Runs apart, repeated or in any order are gathered by an index array,
    bit for bit the concatenated slices."""
    values = np.random.default_rng(5).random(10)
    cells, bounds = gather(values, np.array(GATHER_BOUNDS), runs)
    want, want_bounds = _gathered(values, runs)
    assert not np.shares_memory(cells, values)
    assert cells.tobytes() == want.tobytes() and bounds.tolist() == want_bounds


def test_gather_of_no_runs_is_empty():
    cells, bounds = gather(np.arange(10.0), GATHER_BOUNDS, np.array([], dtype=np.intp))
    assert cells.size == 0 and bounds.tolist() == [0]


def test_the_kernels_import_only_the_standard_library_and_numpy():
    """`_stable` is a leaf: it raises Python's own errors alone, and the layer
    that owns a call types them, so it imports nothing from the package."""
    with open(_stable.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {"." * node.level + (node.module or "").partition(".")[0]
                 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported and imported <= set(sys.stdlib_module_names) | {"numpy"}, imported
