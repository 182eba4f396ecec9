"""The numeric kernels: exact sums and the scalar/vector size switch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gentropies import _stable
from gentropies._stable import (
    escort_weights,
    exact_sum,
    log2_power_sum,
    plogp_sum,
    power_sum,
    segment_sums,
    weighted_log2_sum,
)

# Lengths on both sides of every size switch in `_stable`.
SUM_SIZES = (1, 2, 255, 256, 767, 768, 769, 1000, 2048, 6000)


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
    for switch in (_stable._VECTOR_MIN, _stable._BINNED_MIN):
        assert switch - 1 in SUM_SIZES and switch in SUM_SIZES


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


KERNELS = {
    "plogp_sum": lambda p: plogp_sum(p, [(0, len(p))]),
    "log2_power_sum(0.5)": lambda p: log2_power_sum(p, [(0, len(p))], 0.5),
    "log2_power_sum(100)": lambda p: log2_power_sum(p, [(0, len(p))], 100.0),
    "power_sum(3)": lambda p: power_sum(p, [(0, len(p))], 3.0),
    "escort_weights(2)": lambda p: escort_weights(p, [(0, len(p))], 2.0),
    "escort_weights(0.5)": lambda p: escort_weights(p, [(0, len(p))], 0.5),
    "weighted_log2_sum": lambda p: weighted_log2_sum(p[::-1].copy(), p, [(0, len(p))]),
}
# Kernels whose two branches do the same arithmetic agree bit for bit.
EXACT_KERNELS = {
    "exact_sum": exact_sum,
    "segment_sums": lambda p: segment_sums(p, [0, 1, 100, 100, len(p)]),
}


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("kernel", list(KERNELS.values()), ids=list(KERNELS))
def test_scalar_and_vector_kernels_agree(monkeypatch, kernel, n):
    # numpy's log2/exp2/power may differ from the libm functions by an ulp
    # per term, so the two branches agree to a few ulps, not bit for bit.
    rng = np.random.default_rng(n)
    x = rng.exponential(1.0, n)
    x[rng.choice(n, n // 10, replace=False)] = 0.0
    p = x / x.sum()
    monkeypatch.setattr(_stable, "_VECTOR_MIN", n + 1)
    scalar = kernel(p)
    monkeypatch.setattr(_stable, "_VECTOR_MIN", n)
    vector = kernel(p)
    np.testing.assert_allclose(vector, scalar, rtol=64 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("n", [255, 256, 257])
@pytest.mark.parametrize("kernel", list(EXACT_KERNELS.values()), ids=list(EXACT_KERNELS))
def test_scalar_and_vector_kernels_agree_exactly(monkeypatch, kernel, n):
    rng = np.random.default_rng(n)
    x = rng.exponential(1.0, n)
    x[rng.choice(n, n // 10, replace=False)] = 0.0
    p = x / x.sum()
    monkeypatch.setattr(_stable, "_VECTOR_MIN", n + 1)
    monkeypatch.setattr(_stable, "_BINNED_MIN", n + 1)
    scalar = kernel(p)
    monkeypatch.setattr(_stable, "_VECTOR_MIN", n)
    monkeypatch.setattr(_stable, "_BINNED_MIN", n)
    assert kernel(p) == scalar


@st.composite
def csr_arrays(draw):
    """A flat array of spans of 1-600 entries (straddling 256), each span a
    distribution with about 10 % exact zeros, and a selection of its spans
    (some skipped)."""
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
    keep = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    spans = [(i, j) for (i, j), k in zip(zip(bounds, bounds[1:]), keep) if k]
    return np.concatenate(parts), spans


def _span_slices(out, spans):
    return [out[i:j] for i, j in spans]


SPAN_KERNELS = {
    "plogp_sum": plogp_sum,
    "log2_power_sum(0.5)": lambda p, spans: log2_power_sum(p, spans, 0.5),
    "log2_power_sum(100)": lambda p, spans: log2_power_sum(p, spans, 100.0),
    "power_sum(3)": lambda p, spans: power_sum(p, spans, 3.0),
    "escort_weights(2)": lambda p, spans: _span_slices(escort_weights(p, spans, 2.0), spans),
    "escort_weights(0.5)": lambda p, spans: _span_slices(escort_weights(p, spans, 0.5), spans),
    # weights computed entry by entry, so a span's weights are the same alone
    "weighted_log2_sum": lambda p, spans: weighted_log2_sum(np.sqrt(p), p, spans),
}


@pytest.mark.parametrize("kernel", list(SPAN_KERNELS.values()), ids=list(SPAN_KERNELS))
@given(data=csr_arrays())
@settings(max_examples=60, deadline=None)
def test_span_kernels_equal_each_slice_alone(kernel, data):
    """Each span's result is the kernel's result on a standalone copy of the
    span, bit for bit, whichever branch its length takes."""
    flat, spans = data
    batched = kernel(flat, spans)
    alone = [kernel(flat[i:j].copy(), [(0, j - i)])[0] for i, j in spans]
    assert len(batched) == len(alone)
    for got, want in zip(batched, alone):
        np.testing.assert_array_equal(got, want)
