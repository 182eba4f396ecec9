import math

import pytest
from hypothesis import assume, given, strategies as st

from gentropies import Deformation, DomainError, Overflow, ParameterError, SingularElement

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
