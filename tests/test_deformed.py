import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gentropies import (
    Deformation,
    DomainError,
    ExponentialGenerator,
    Overflow,
    ParameterError,
    SingularElement,
)
from reference import ref_exp_coordinate, ref_log_coordinate

reals = st.floats(-10.0, 10.0, allow_nan=False)
# subnormal lambda quantizes lam*x at the 5e-324 grid, below the module's
# documented 1e-300 underflow guard; exact zero takes the identity branch
lambdas = st.floats(-2.0, 2.0, allow_nan=False).filter(
    lambda lam: lam == 0.0 or abs(lam) >= 1e-300
)


class TestExamples:
    def test_h_maps_every_entry_of_a_2d_array(self):
        """A 2-D array gets the bits of its 1-D entries, in its own shape, and
        an overflow names the first overflowing entry in row order."""
        x = np.linspace(-3.0, 3.0, 6)
        got = Deformation(0.7).h(x.reshape(3, 2))
        assert got.shape == (3, 2)
        assert [v.hex() for v in got.ravel().tolist()] == [
            v.hex() for v in Deformation(0.7).h(x).tolist()]
        with pytest.raises(Overflow, match=r"exponent 3000\.0 overflowed"):
            Deformation(1.0).h(np.array([[0.0, 3000.0], [2000.0, 0.0]]))

    def test_plain_addition(self):
        assert Deformation(0.0).add(2.0, 3.0) == 5.0

    def test_plain_addition_where_the_product_overflows(self):
        # the additive families compose through Deformation(); 1e160 * 1e160
        # is inf and must not turn the sum into nan
        assert Deformation(0.0).add(1e160, 1e160) == 2e160

    def test_identity_element(self):
        for lam in (-2.0, 0.0, 1.5):
            assert Deformation(lam).add(7.25, 0.0) == 7.25

    def test_deformed_one_plus_one(self):
        assert Deformation(1.0).add(1.0, 1.0) == 3.0

    def test_negate(self):
        assert Deformation(0.0).negate(4.0) == -4.0
        assert Deformation(2.0).negate(0.0) == 0.0
        assert Deformation(-1.0).negate(0.5) == -1.0

    def test_subtract(self):
        assert Deformation(1.5).subtract(4.0, 4.0) == 0.0
        assert Deformation(0.0).subtract(5.0, 3.0) == 2.0
        assert Deformation(-1.0).subtract(0.625, 0.5) == 0.25

    def test_h(self):
        assert Deformation(1.0).h(0.0) == 0.0
        assert Deformation(0.0).h(3.5) == 3.5
        assert Deformation(1.0).h(2.0) == 3.0

    def test_h_inv(self):
        assert Deformation(-0.7).h_inv(0.0) == 0.0
        assert Deformation(1.0).h_inv(3.0) == 2.0

    def test_h_inv_domain(self):
        with pytest.raises(DomainError):
            Deformation(1.0).h_inv(-1.5)

    def test_h_overflow_reported(self):
        with pytest.raises(Overflow):
            Deformation(1.0).h(2000.0)

    def test_singular_element(self):
        with pytest.raises(SingularElement):
            Deformation(2.0).negate(-0.5)
        with pytest.raises(SingularElement):
            Deformation(2.0).subtract(1.0, -0.5)

    def test_sum(self):
        assert Deformation(1.0).sum(()) == 0.0
        assert Deformation(0.0).sum((1.0, 2.0, 3.0)) == 6.0
        assert Deformation(1.0).sum((1.0, 1.0)) == 3.0

    def test_nonfinite_lambda_rejected(self):
        with pytest.raises(ParameterError):
            Deformation(math.inf)


class TestGroupLaws:
    @given(lambdas, reals, reals)
    def test_commutative(self, lam, x, y):
        d = Deformation(lam)
        assert d.add(x, y) == d.add(y, x)

    @given(lambdas, reals, reals, reals)
    def test_associative(self, lam, x, y, z):
        d = Deformation(lam)
        left = d.add(d.add(x, y), z)
        right = d.add(x, d.add(y, z))
        assert abs(left - right) <= 1e-9 * (1.0 + abs(left))

    @given(lambdas, reals)
    def test_inverse(self, lam, x):
        d = Deformation(lam)
        assume(abs(1.0 + lam * x) > 0.05)
        assert abs(d.add(x, d.negate(x))) <= 1e-12

    @given(lambdas, reals, reals)
    def test_subtract_undoes_add(self, lam, x, y):
        d = Deformation(lam)
        assume(abs(1.0 + lam * y) > 0.05)
        back = d.add(d.subtract(x, y), y)
        assert abs(back - x) <= 1e-10 * (1.0 + abs(x))


class TestIsomorphism:
    @given(lambdas, reals, reals)
    def test_h_carries_addition(self, lam, x, y):
        assume(lam != 0.0)
        d = Deformation(lam)
        left = d.h(x + y)
        right = d.add(d.h(x), d.h(y))
        assert abs(left - right) <= 1e-9 * (1.0 + abs(left))

    @given(lambdas, reals)
    def test_round_trip(self, lam, x):
        d = Deformation(lam)
        assert abs(d.h_inv(d.h(x)) - x) <= 1e-10 * (1.0 + abs(x))

    @given(lambdas, st.lists(st.floats(-5.0, 5.0, allow_nan=False), max_size=6))
    def test_sum_through_isomorphism(self, lam, ys):
        d = Deformation(lam)
        xs = [d.h(y) for y in ys]
        folded = d.sum(xs)
        direct = d.h(math.fsum(ys))
        assert abs(folded - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_h_range_lower_bound(self):
        # for lam > 0 the image is bounded below by -1/lam
        d = Deformation(0.5)
        assert d.h(-60.0) > -2.0
        assert d.h(-60.0) == pytest.approx(-2.0, abs=1e-6)


@pytest.mark.parametrize(
    "lam, x",
    [(3.0, 1e308), (-3.0, -1e308), (1e-10, 1e13), (1.0, 2000.0)],
    ids=["product", "negative-product", "quotient", "expm1"],
)
def test_h_raises_where_the_result_leaves_the_range(lam, x):
    with pytest.raises(Overflow, match="deformation exponent"):
        Deformation(lam).h(x)


_DBL_MAX = sys.float_info.max


@pytest.mark.parametrize("lam", [3.0, -3.0])
def test_coordinate_at_the_edge_of_the_float_range(lam):
    """Where lam*y, or expm1 before the division by lam, passes the float range
    but the result is finite, h_inv and h agree with mpmath; past it h raises."""
    d, s = Deformation(lam), math.copysign(1.0, lam)
    for y in (1e300, 1e307, 1e308, _DBL_MAX):
        assert d.h_inv(s * y) == pytest.approx(ref_log_coordinate(s * y, lam, lam), rel=1e-12)
    xs = [s * x for x in (341.0, 341.5, 341.8)]
    for x in xs:
        assert d.h(x) == pytest.approx(ref_exp_coordinate(x, lam, lam), rel=1e-12)
    assert d.h(np.array(xs)).tolist() == [d.h(x) for x in xs]
    with pytest.raises(Overflow, match="deformation exponent"):
        d.h(s * 341.9)


def test_generator_coordinate_at_the_edge_of_the_float_range():
    g = ExponentialGenerator(1.0, gamma=4.0)
    for y in (1e308, _DBL_MAX):
        assert g.invert(y) == pytest.approx(ref_log_coordinate(y, 1.0, 4.0), rel=1e-12)
    xs = [1024.5, 1025.0, 1025.9]
    for x in xs:
        assert g.evaluate(x) == pytest.approx(ref_exp_coordinate(x, 1.0, 4.0), rel=1e-12)
    assert g.evaluate(np.array([1.0, *xs])).tolist() == [g.evaluate(x) for x in [1.0, *xs]]
    with pytest.raises(Overflow, match="generator exponent"):
        g.evaluate(1026.1)


def test_h_of_nonfinite_arguments():
    d = Deformation(2.0)
    assert d.h(math.inf) == math.inf
    assert d.h(-math.inf) == -0.5
    assert math.isnan(d.h(math.nan))
    assert math.copysign(1.0, d.h(-0.0)) == -1.0


def test_numpy_scalars_are_read_as_floats():
    d = Deformation(3.0)
    assert d.h(np.float64(0.5)).hex() == d.h(0.5).hex()
    assert type(d.h(np.float64(0.5))) is float
    assert d.h_inv(np.float64(0.5)).hex() == d.h_inv(0.5).hex()
    with pytest.raises(Overflow) as scalar:
        d.h(np.float64(1e308))
    with pytest.raises(Overflow) as plain:
        d.h(1e308)
    assert str(scalar.value) == str(plain.value)


def test_integers_past_the_float_range_overflow():
    d = Deformation(3.0)
    with pytest.raises(Overflow, match="past the float range"):
        d.h(10 ** 400)
    with pytest.raises(Overflow, match="past the float range"):
        d.h_inv(10 ** 400)


def _negate_by_formula(lam, x):
    den = 1.0 + lam * x
    if abs(den) < 1e-300:
        raise SingularElement(f"{x!r} is at the pole of lambda={lam!r}")
    return -x / den


def _hex_or_error(fn, *args):
    try:
        value = fn(*args)
    except SingularElement as exc:
        return str(exc)
    return "nan" if math.isnan(value) else value.hex()


@pytest.mark.parametrize("lam", [0.0, 2.0, -1.5])
def test_negate_is_the_difference_from_zero(lam):
    # the pole check of subtract serves negate: same bits, same message
    xs = [0.0, -0.0, math.inf, -math.inf, 0.5, -0.5, 2.0 / 3.0, 1e308, -1e-300]
    if lam:
        xs.append(-1.0 / lam)
    for x in xs:
        assert _hex_or_error(Deformation(lam).negate, x) == _hex_or_error(_negate_by_formula, lam, x)


# The array arms of `h_inv`, `invert` and `subtract`: each entry of a 1-D or
# 2-D float64 array gets the bits of the scalar call, whatever numpy's error
# state, and the first bad entry in row order raises the scalar call's error.
_ENTRIES = [0.0, -0.0, 0.5, -0.25, 3.0, -0.375, 1e-300, 7.0, 1e308, -1e308, math.inf,
            -math.inf, math.nan, 2.0 ** -1074, -0.75, 123.5]
_ARRAY_CALLS = [(f"h_inv lam={lam}", Deformation(lam).h_inv) for lam in (0.0, 1.0, -1.5, 1e-12)] + [
    (repr(g), g.invert) for g in (ExponentialGenerator(2.5), ExponentialGenerator(-0.5, 4.0, 0.75))]


def _scalar_outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (DomainError, SingularElement) as exc:
        return type(exc), str(exc)


def _shapes(values):
    """``values`` as 1-D and 2-D float64 arrays, the 2-D one of two rows."""
    flat = np.array(values + values[-1:] * (len(values) % 2))
    return [flat, flat.reshape(2, -1)]


@pytest.mark.parametrize("name, fn", _ARRAY_CALLS, ids=[name for name, _ in _ARRAY_CALLS])
def test_inverse_maps_arrays_with_the_scalar_bits(name, fn):
    valid = [y for y in _ENTRIES if isinstance(_scalar_outcome(fn, y), str)]
    finite = [y for y in valid if math.isfinite(y)]  # the one-map path, and the per-entry one
    for values in (finite, valid):
        for ys in _shapes(values):
            with np.errstate(all="raise"):
                got = fn(ys)
            assert got.shape == ys.shape and got.dtype == np.float64, name
            assert [v.hex() for v in got.ravel().tolist()] == [
                _scalar_outcome(fn, y) for y in ys.ravel().tolist()], name


@pytest.mark.parametrize("name, fn", _ARRAY_CALLS[1:], ids=[name for name, _ in _ARRAY_CALLS[1:]])
def test_inverse_of_an_array_raises_the_first_bad_entry_in_row_order(name, fn):
    bad = [y for y in _ENTRIES if not isinstance(_scalar_outcome(fn, y), str)]
    assert len({_scalar_outcome(fn, y) for y in bad}) > 1, name  # the first is told apart
    for ys in _shapes([0.5, bad[1], 0.25, bad[0], *bad[2:]]):
        with pytest.raises(DomainError) as raised:
            fn(ys)
        assert (type(raised.value), str(raised.value)) == _scalar_outcome(fn, bad[1]), name


def test_h_inv_of_a_2d_array_is_its_scalar_calls():
    got = Deformation(1.0).h_inv(np.ones((2, 3)))
    assert got.shape == (2, 3) and got.dtype == np.float64
    assert {v.hex() for v in got.ravel().tolist()} == {Deformation(1.0).h_inv(1.0).hex()}


@pytest.mark.parametrize("lam", [0.0, 2.0, -1.5, 3.0])
def test_subtract_maps_arrays_with_the_scalar_bits(lam):
    d = Deformation(lam)
    pairs = [(x, y) for x in _ENTRIES[::3] for y in _ENTRIES
             if isinstance(_scalar_outcome(d.subtract, x, y), str)]
    xs, ys = (_shapes([pair[k] for pair in pairs]) for k in (0, 1))
    for x, y in zip(xs, ys):
        with np.errstate(all="raise"):
            got = d.subtract(x, y)
        assert got.shape == y.shape
        assert [v.hex() for v in got.ravel().tolist()] == [
            d.subtract(a, b).hex() for a, b in zip(x.ravel().tolist(), y.ravel().tolist())]


def test_subtract_of_an_array_raises_the_first_pole_in_row_order():
    d = Deformation(3.0)
    poles = [-0.3333333333333333, -0.33333333333333337]  # both give 1 + 3y = 0 exactly
    messages = [_scalar_outcome(d.subtract, 1.0, y) for y in poles]
    assert messages[0] != messages[1] and all(m[0] is SingularElement for m in messages)
    for first, second in (poles, poles[::-1]):
        for ys in _shapes([0.5, 2.0, first, 1.0, second, first]):
            with pytest.raises(SingularElement) as raised:
                d.subtract(np.ones_like(ys), ys)
            assert str(raised.value) == _scalar_outcome(d.subtract, 1.0, first)[1]


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.5])
def test_add_and_subtract_of_arrays_keep_the_float_results_under_a_raising_state(lam):
    """An array argument, x or y or both, gets each entry's float result, inf past the
    range included, whatever the caller's numpy error state."""
    d = Deformation(lam)
    xs = [1e308, -1e308, 1.7e308, 0.5, -0.25]
    ys = [1e308, 1e308, -0.5, 1e-300, 0.75]
    cases = [(np.array(xs), np.array(ys)), (np.array(xs), -0.5), (1e308, np.array(ys))]
    for x, y in cases:
        pairs = list(zip(*(np.broadcast_to(v, (len(xs),)).tolist() for v in (x, y))))
        for op in (d.add, d.subtract):
            with np.errstate(all="raise"):
                got = op(x, y)
            assert [v.hex() for v in got.tolist()] == [op(a, b).hex() for a, b in pairs]
