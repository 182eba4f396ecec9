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
