import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import constrained_grid, distributions, joints
from gentropies import (
    HCT,
    Deformation,
    DimensionError,
    Distribution,
    DomainError,
    ExponentialGenerator,
    GeneralEscort,
    JointDistribution,
    LinearGenerator,
    Nath,
    Overflow,
    ParameterError,
    Shannon,
    VIOLATION_THRESHOLD,
    conditional,
    conditional_entropy,
    counterexample_probe,
    direct_product,
    entropy,
    escort,
    family_name,
    family_params,
    joint_entropy,
    make_distribution,
    make_family,
    make_joint,
    marginal,
    product_additivity_residual,
    quasi_mean,
    strong_additivity_residual,
    uniform,
    uniform_trace,
)
from gentropies import _stable, entropies
from gentropies.entropies import (
    general_escort,
    havrda_charvat,
    hct,
    nath,
    renyi,
    shannon,
    span_entropies,
    strongly_additive_nath,
    tsallis,
)
from reference import ref_conditional_entropy, ref_entropy, ref_joint_entropy

PROBE = make_joint(((0.5, 0.0), (0.25, 0.25)))

GRID = constrained_grid()
GRID_IDS = [label for label, _ in GRID]
GRID_FAMILIES = [family for _, family in GRID]


class TestValidation:
    @pytest.mark.parametrize("tau", [0.0, 1.0, math.inf])
    def test_shannon_tau(self, tau):
        with pytest.raises(ParameterError):
            Shannon(tau)

    def test_general_escort_constraints(self):
        with pytest.raises(ParameterError):
            GeneralEscort(alpha=2.0, tau=1.0, lam=0.0)  # tau not negative
        with pytest.raises(ParameterError):
            GeneralEscort(alpha=-2.0, tau=-1.0, lam=-3.0)  # beta = -5 < 0

    def test_nath_constraints(self):
        with pytest.raises(ParameterError):
            Nath(alpha=2.0, lam=1.0, tau=-1.0)  # (1-alpha)/lambda = -1
        with pytest.raises(ParameterError):
            Nath(alpha=2.0, lam=0.0, tau=-1.0)
        with pytest.raises(ParameterError):
            Nath(alpha=-0.5, lam=1.0, tau=-1.0)
        with pytest.raises(ParameterError):
            Nath(alpha=1.0, lam=0.0, tau=1.0)  # Shannon branch needs tau < 0

    def test_hct_constraints(self):
        with pytest.raises(ParameterError):
            HCT(alpha=1.0, lam=0.5, tau=-1.0)
        with pytest.raises(ParameterError):
            HCT(alpha=2.0, lam=0.0, tau=-1.0)
        with pytest.raises(ParameterError):
            HCT(alpha=2.0, lam=1.0, tau=-1.0)  # (1-alpha)/lambda < 0
        with pytest.raises(ParameterError):
            HCT(alpha=2.0, lam=-1.0, tau=-2.0)  # alpha - tau*lam = 0 != 1
        with pytest.raises(ParameterError, match="^hct: alpha must be positive, got -1.0$"):
            hct(-1.0, 2.0, -1.0)

    def test_named_members_refuse_their_degenerate_points(self):
        with pytest.raises(ParameterError, match="^nath: lambda must be nonzero when alpha != 1$"):
            strongly_additive_nath(2.0, 0.0)
        with pytest.raises(ParameterError, match="^havrda-charvat: alpha must differ from 1$"):
            havrda_charvat(1.0)

    def test_uniform_trace_needs_a_positive_dimension(self):
        with pytest.raises(DimensionError, match="^uniform trace needs n >= 1, got 0$"):
            uniform_trace(shannon(), 0)

    def test_error_names_the_constraint(self):
        with pytest.raises(ParameterError, match=r"\(1 - alpha\)/lambda"):
            Nath(alpha=2.0, lam=1.0, tau=-1.0)


class TestConstructors:
    def test_renyi_is_nath(self):
        assert renyi(2.0) == Nath(alpha=2.0, lam=-1.0, tau=-1.0)

    def test_tsallis_satisfies_constraint(self):
        f = tsallis(2.0)
        assert f == HCT(alpha=2.0, lam=-1.0, tau=-1.0)
        assert f.alpha - f.tau * f.lam == 1.0

    def test_havrda_charvat_parameters(self):
        f = havrda_charvat(2.0)
        assert f.lam == 2.0 ** (1.0 - 2.0) - 1.0
        assert f.alpha - f.tau * f.lam == pytest.approx(1.0, abs=1e-12)

    def test_strongly_additive_nath(self):
        f = strongly_additive_nath(2.0, -0.5)
        assert f.tau == (2.0 - 1.0) / -0.5
        with pytest.raises(ParameterError):
            strongly_additive_nath(2.0, 1.0)

    def test_make_family_names(self):
        assert make_family("renyi", alpha=2.0) == renyi(2.0)
        assert make_family("shannon") == shannon(-1.0)
        assert make_family("tsallis", alpha=0.5) == tsallis(0.5)
        assert make_family("havrda-charvat", alpha=2.0) == havrda_charvat(2.0)
        assert make_family("general", alpha=2.0, tau=-1.0, lam=1.0) == general_escort(2.0, -1.0, 1.0)
        assert make_family("nath", alpha=2.0, lam=-1.0, tau=-1.0) == nath(2.0, -1.0, -1.0)
        assert make_family("hct", alpha=2.0, lam=-1.0, tau=-1.0) == tsallis(2.0)

    def test_make_family_missing_parameter(self):
        with pytest.raises(ParameterError, match="--alpha"):
            make_family("renyi")
        with pytest.raises(ParameterError, match="--lambda"):
            make_family("nath", alpha=2.0, tau=-1.0)

    def test_make_family_unknown(self):
        with pytest.raises(ParameterError):
            make_family("boltzmann")

    def test_make_family_rejects_inapplicable_flags(self):
        with pytest.raises(ParameterError, match="does not take"):
            make_family("shannon", alpha=2.0)
        with pytest.raises(ParameterError, match="does not take"):
            make_family("renyi", alpha=2.0, lam=-1.0)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ParameterError):
            make_family("renyi", alpha=math.nan)
        from gentropies import NotNormalized, escort
        from gentropies.errors import EscortUndefined

        with pytest.raises(NotNormalized):
            make_distribution((math.nan, 0.5))
        with pytest.raises(EscortUndefined):
            escort(uniform(2), math.nan)

    def test_family_name_and_params(self):
        f = tsallis(2.0)
        assert family_name(f) == "hct"
        assert family_params(f) == {"alpha": 2.0, "lam": -1.0, "tau": -1.0}

    @pytest.mark.parametrize("not_a_family", [None, 2.0, "renyi", Deformation(-1.0)])
    def test_non_family_is_type_error(self, not_a_family):
        with pytest.raises(TypeError):
            entropy(not_a_family, uniform(2))
        with pytest.raises(TypeError):
            uniform_trace(not_a_family, 4)
        with pytest.raises(TypeError):
            conditional_entropy(not_a_family, make_joint([[0.5], [0.5]]))

    # A value of the wrong type names the expected class, not a private attribute.

    @pytest.mark.parametrize("value", [[0.5, 0.5], (0.5, 0.5), np.array([0.5, 0.5]),
                                       make_joint([[0.5], [0.5]])], ids=repr)
    def test_entropy_of_a_non_distribution_is_type_error(self, value):
        with pytest.raises(TypeError, match=r"expected a Distribution, got "):
            entropy(renyi(2.0), value)

    @pytest.mark.parametrize("value", [uniform(2), [[0.5], [0.5]]], ids=repr)
    def test_conditional_entropy_of_a_non_joint_is_type_error(self, value):
        with pytest.raises(TypeError, match=r"expected a JointDistribution, got "):
            conditional_entropy(renyi(2.0), value)

    @pytest.mark.parametrize("value", [[[0.5], [0.5]], uniform(2)], ids=repr)
    def test_joint_entropy_of_a_non_joint_is_type_error(self, value):
        with pytest.raises(TypeError, match=r"expected a JointDistribution, got "):
            joint_entropy(renyi(2.0), value)


class TestEntropyValues:
    def test_shannon_fair_coin_is_one(self):
        assert entropy(shannon(-1.0), uniform(2)) == 1.0

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    def test_point_mass_is_zero(self, family):
        assert entropy(family, make_distribution((1.0, 0.0, 0.0))) == 0.0

    def test_renyi_two(self):
        # -log2(10/16), oracle-verified
        value = entropy(renyi(2.0), make_distribution((0.25, 0.75)))
        assert value == pytest.approx(0.6780719051126377, abs=1e-14)

    def test_tsallis_two_fair_coin(self):
        assert entropy(tsallis(2.0), uniform(2)) == 0.5

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, 7.0])
    def test_havrda_charvat_normalization(self, alpha):
        assert entropy(havrda_charvat(alpha), uniform(2)) == 1.0

    def test_general_escort_lam_zero_matches_oracle(self):
        f = general_escort(2.0, -1.0, 0.0)
        p = make_distribution((0.1, 0.2, 0.7))
        assert entropy(f, p) == pytest.approx(ref_entropy(f, p.probs), rel=1e-13)

    def test_zero_probability_needs_positive_exponent(self):
        f = general_escort(-1.0, -1.0, 3.0)  # alpha <= 0, beta = 2 > 0
        with pytest.raises(DomainError):
            entropy(f, make_distribution((1.0, 0.0)))
        positive = make_distribution((0.5, 0.5))
        assert math.isfinite(entropy(f, positive))

    @pytest.mark.parametrize("bounds", [
        [0, 2, 4],  # from 0, the zero in the second span
        [3, 4, 6, 9],  # past the first zero, the zero in the last span
    ])
    def test_zero_in_any_span_raises_before_any_kernel(self, monkeypatch, bounds):
        """The runs between ``bounds`` in ``cells``, cut out with their bounds from 0."""
        def refuse(*args):
            raise AssertionError("a kernel ran before the zero check")

        f = general_escort(-1.0, -1.0, 3.0)  # alpha <= 0
        cells = np.array([0.5, 0.5, 0.0, 1.0, 0.25, 0.75, 0.3, 0.0, 0.7])
        flat = cells[bounds[0]:bounds[-1]]
        monkeypatch.setattr(_stable, "log2_power_sum", refuse)  # looked up there when called
        with pytest.raises(DomainError):
            span_entropies(f, flat, [b - bounds[0] for b in bounds])
        monkeypatch.undo()
        # runs that start after one zero and end before the other are fine
        assert all(map(math.isfinite, span_entropies(f, cells[3:6], [0, 1, 3])))

    def test_huge_alpha_stays_finite(self):
        value = entropy(renyi(100.0), make_distribution((0.3, 0.7)))
        assert value == pytest.approx(-math.log2(0.7) * 100.0 / 99.0, rel=1e-9)

    def test_non_finite_value_is_typed_overflow(self):
        # -1.7e308 * -2 is past the float range
        with pytest.raises(Overflow, match="shannon entropy is not finite"):
            entropy(shannon(-1.7e308), uniform(4))
        assert entropy(shannon(-1.7e308), uniform(2)) == 1.7e308

    @pytest.mark.parametrize(
        "family", [shannon(), nath(1.0, 1.0, -1.0), general_escort(1.0, -1.0, 0.0),
                   tsallis(2.0), havrda_charvat(2.0)], ids=repr)
    def test_overflowing_sum_is_typed_overflow(self, family):
        # raw values whose sum of p log2 p is past the float range
        with pytest.raises(Overflow, match=family.name):
            entropy(family, Distribution([1.76e305, 1.76e305]))

    def test_run_without_a_positive_entry_is_typed_domain_error(self):
        with pytest.raises(DomainError, match="nath"):
            entropy(renyi(2.0), Distribution([0.0, 0.0]))


class TestConditionalAndJoint:
    def test_shannon_probe(self):
        assert conditional_entropy(shannon(-1.0), PROBE) == pytest.approx(0.5, abs=1e-15)
        assert joint_entropy(shannon(-1.0), PROBE) == pytest.approx(1.5, abs=1e-15)

    def test_renyi_probe(self):
        # log2(4/3) and log2(8/3), oracle-verified
        assert conditional_entropy(renyi(2.0), PROBE) == pytest.approx(
            0.4150374992788438, abs=1e-14
        )
        assert joint_entropy(renyi(2.0), PROBE) == pytest.approx(
            1.415037499278844, abs=1e-14
        )

    def test_tsallis_probe(self):
        assert conditional_entropy(tsallis(2.0), PROBE) == pytest.approx(0.25, abs=1e-15)
        assert joint_entropy(tsallis(2.0), PROBE) == pytest.approx(0.625, abs=1e-15)

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    def test_conditional_of_product_is_entropy(self, family):
        p = make_distribution((0.3, 0.7))
        q = make_distribution((0.2, 0.3, 0.5))
        j = direct_product(p, q)
        assert conditional_entropy(family, j) == pytest.approx(
            entropy(family, q), rel=1e-12, abs=1e-12
        )

    def test_zero_marginal_rows_skipped(self):
        j = make_joint(((0.0, 0.0), (0.5, 0.25), (0.125, 0.125)))
        value = conditional_entropy(shannon(-1.0), j)
        trimmed = make_joint(((0.5, 0.25), (0.125, 0.125)))
        assert value == pytest.approx(conditional_entropy(shannon(-1.0), trimmed), rel=1e-13)

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    def test_zero_marginal_rows_between_rows_skipped(self, family):
        # the rows of positive marginal are apart, so they are gathered
        zeros = (0.0, 0.0, 0.0)
        rows = ((0.25, 0.125, 0.0), (0.125, 0.25, 0.125), (0.0625, 0.0625, 0.0))
        j = make_joint((rows[0], zeros, rows[1], zeros, zeros, rows[2]))
        assert conditional_entropy(family, j) == conditional_entropy(family, make_joint(rows))


class TestUniformTrace:
    def test_shannon(self):
        assert uniform_trace(shannon(-1.0), 4) == 2.0

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 16, 1000])
    def test_renyi_is_log_n(self, alpha, n):
        assert uniform_trace(renyi(alpha), n) == pytest.approx(math.log2(n), rel=1e-14)

    def test_tsallis_two(self):
        assert uniform_trace(tsallis(2.0), 2) == 0.5

    def test_tsallis_half_sixteen(self):
        assert uniform_trace(tsallis(0.5), 16) == 6.0

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 2 ** 16])
    def test_matches_entropy_of_uniform(self, family, n):
        value = entropy(family, uniform(n))
        trace = uniform_trace(family, n)
        assert abs(value - trace) <= 1e-12 * (1.0 + abs(value))

    def test_positive_for_nontrivial_dimension(self):
        for family in GRID_FAMILIES:
            assert uniform_trace(family, 17) > 0.0

    @pytest.mark.parametrize(
        "family", [shannon(-1.0), renyi(2.0), general_escort(2.0, -1.0, 0.5)]
    )
    def test_dimension_beyond_float_range(self, family):
        # float(10**400) overflows; the log2 of the integer does not
        log_n = 400 * math.log2(10.0)
        expected = log_n if isinstance(family, Nath) else -family.tau * log_n
        assert uniform_trace(family, 10 ** 400) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "alpha, expected", [(0.5, (10 ** 200 - 1) / 0.5), (2.0, 1.0)], ids=["0.5", "2.0"]
    )
    def test_hct_beyond_float_range(self, alpha, expected):
        # 1.0 / 10**400 is not a float, but n**(1 - alpha) is
        assert uniform_trace(tsallis(alpha), 10 ** 400) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_havrda_charvat_beyond_float_range(self, alpha):
        # h_lam(-tau log2 n) = (n**(1 - alpha) - 1)/lam, the family's float lam, in 50 digits
        family, n = havrda_charvat(alpha), 10 ** 400
        with mpmath.workdps(50):
            expected = float((mpmath.mpf(n) ** (1 - mpmath.mpf(alpha)) - 1) / family.lam)
        assert uniform_trace(family, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2.5, math.inf, math.nan, "4"], ids=repr)
    def test_dimension_must_be_an_integer(self, n):
        """As for ``uniform(n)``: 2.5 is not traced as log2(2.5)."""
        with pytest.raises(DimensionError, match="uniform trace dimension must be an integer"):
            uniform_trace(renyi(2.0), n)
        assert uniform_trace(renyi(2.0), np.int64(8)) == uniform_trace(renyi(2.0), 8)

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_hct_beyond_float_range_is_typed_overflow(self, alpha):
        # n**(1 - alpha) itself exceeds the float range
        with pytest.raises(Overflow):
            uniform_trace(tsallis(alpha), 10 ** 700)


# The paper (arXiv:1311.0324): strong additivity makes the uniform trace
# phi(n) = H(U_n) solve phi(mn) = phi(m) (+)_lam phi(n), and with phi analytic
# in n the solutions are c*log2(n) (lam = 0) and (n**c - 1)/lam.
TRACE_DIMS = (2, 3, 5, 6, 10, 15, 30)
TRACE_PAIRS = [(m, n) for m in TRACE_DIMS for n in TRACE_DIMS if m < n and m * n in TRACE_DIMS]


def _identify(phi) -> tuple[list[float], list[float]]:
    """The composition lam recovered from each pair (m, n) of TRACE_PAIRS,
    then the exponent c from each n of TRACE_DIMS under the recovered lam."""
    lams = [(phi[m * n] - phi[m] - phi[n]) / (phi[m] * phi[n]) for m, n in TRACE_PAIRS]
    lam = math.fsum(lams) / len(lams)
    if abs(lam) <= 1e-12:
        cs = [phi[n] / math.log2(n) for n in TRACE_DIMS]
    else:
        cs = [math.log2(1.0 + lam * phi[n]) / math.log2(n) for n in TRACE_DIMS]
    return lams, cs


def _declared(family) -> tuple[float, float]:
    """(lam, c): addition and c = -tau, or HCT's lam and c = -tau*lam = 1 - alpha."""
    lam = family.composition.lam
    return lam, -family.tau * (lam or 1.0)


@pytest.mark.parametrize(
    "family", [*GRID_FAMILIES, hct(2.0, -1.0, -1.0)], ids=[*GRID_IDS, "hct(2,-1,-1)"]
)
def test_uniform_traces_identify_the_family(family):
    lam, c = _declared(family)
    lams, cs = _identify({n: entropy(family, uniform(n)) for n in TRACE_DIMS})
    assert max(abs(x - lam) for x in lams) <= 1e-12
    assert max(abs(x - c) for x in cs) <= 1e-12


@pytest.mark.parametrize("family", [
    general_escort(1.0, -1.0, -0.5), general_escort(0.5, -1.0, 0.0),
    general_escort(1.0, -1.0, 1.0), general_escort(2.0, -1.0, 0.0),
    general_escort(2.0, -1.0, 1.0), general_escort(3.0, -1.0, 0.0),
], ids=repr)
def test_escort_traces_identify_a_family_that_is_not_strongly_additive(family):
    """beta != 1: escort(U_n) = U_n, so the traces are Shannon's, yet the
    probe joint shows the violation: the traces alone do not force beta = 1."""
    lam, c = _declared(family)
    lams, cs = _identify({n: entropy(family, uniform(n)) for n in TRACE_DIMS})
    assert max(abs(x - lam) for x in lams) <= 1e-12
    assert max(abs(x - c) for x in cs) <= 1e-12
    assert counterexample_probe(family) >= VIOLATION_THRESHOLD


def test_an_additive_trace_that_is_not_analytic_gives_no_exponent():
    """Omega(n), the number of prime factors with multiplicity, is completely
    additive: Omega(mn) = Omega(m) + Omega(n).  Only a regularity hypothesis
    (analyticity in the paper) rules it out: no single c fits it."""
    omega = {2: 1, 3: 1, 5: 1, 6: 2, 10: 2, 15: 2, 30: 3}
    lams, cs = _identify(omega)
    assert lams == [0.0] * len(TRACE_PAIRS)
    assert max(cs) - min(cs) > 0.3


# Both signs of each parameter, and both branches of the general family.
ZERO_FAMILIES = [
    shannon(-1.0), renyi(2.0), renyi(0.5), tsallis(2.0), tsallis(0.5),
    nath(0.5, 1.0, 0.5), havrda_charvat(2.0), havrda_charvat(0.5),
    general_escort(2.0, -1.0, 0.0), general_escort(2.0, -1.0, 0.5),
    general_escort(0.5, -1.0, 0.0), general_escort(0.5, -1.0, 0.5),
]


@pytest.mark.parametrize("family", ZERO_FAMILIES, ids=repr)
def test_zero_entropy_is_positive_zero(family):
    """A point mass, a joint whose rows are point masses and the trace at
    n = 1 have entropy +0.0, never -0.0."""
    values = [
        entropy(family, make_distribution((1.0, 0.0))),
        joint_entropy(family, make_joint(((1.0, 0.0),))),
        conditional_entropy(family, make_joint(((0.5, 0.0), (0.0, 0.5)))),
        uniform_trace(family, 1),
    ]
    assert [math.copysign(1.0, v) for v in values] == [1.0] * 4


class TestInvariants:
    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    def test_permutation_invariance_exact(self, family):
        p = make_distribution((0.05, 0.3, 0.15, 0.5))
        q = make_distribution((0.5, 0.15, 0.05, 0.3))
        assert entropy(family, p) == entropy(family, q)

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    def test_expandability_is_derived(self, family):
        p = make_distribution((0.2, 0.8))
        padded = make_distribution((0.2, 0.8, 0.0))
        assert abs(entropy(family, padded) - entropy(family, p)) <= 1e-12

    @given(distributions(min_size=2, max_size=8))
    @settings(max_examples=60)
    def test_nonnegative(self, p):
        for family in GRID_FAMILIES:
            assert entropy(family, p) >= 0.0

    @given(distributions(min_size=2, max_size=8, positive=True))
    @settings(max_examples=40)
    def test_positive_off_the_vertices(self, p):
        for family in GRID_FAMILIES:
            assert entropy(family, p) > 0.0

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    @given(joint=joints(max_rows=4, max_cols=4))
    @settings(max_examples=25, deadline=None)
    def test_strong_additivity(self, family, joint):
        whole = joint_entropy(family, joint)
        head = entropy(family, marginal_of(joint))
        tail = conditional_entropy(family, joint)
        if isinstance(family, HCT):
            expected = Deformation(family.lam).add(head, tail)
        else:
            expected = head + tail
        assert abs(whole - expected) <= 1e-9 * (1.0 + abs(whole))


def marginal_of(joint):
    from gentropies import marginal

    return marginal(joint)


class TestOracleAgreement:
    """Dual-route check: the package against the 50-digit transcription."""

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    @given(p=distributions(min_size=2, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_entropy(self, family, p):
        assert entropy(family, p) == pytest.approx(
            ref_entropy(family, p.probs), rel=1e-12, abs=1e-13
        )

    @pytest.mark.parametrize(
        "family",
        [
            general_escort(2.0, -1.0, 1.0),
            general_escort(1.0, -1.0, -0.5),
            general_escort(0.5, -1.0, 0.0),
            general_escort(3.0, -2.0, 0.5),
        ],
    )
    @given(p=distributions(min_size=2, max_size=6, positive=True))
    @settings(max_examples=15, deadline=None)
    def test_general_escort_entropy(self, family, p):
        assert entropy(family, p) == pytest.approx(
            ref_entropy(family, p.probs), rel=1e-12, abs=1e-13
        )

    @pytest.mark.parametrize("family", GRID_FAMILIES, ids=GRID_IDS)
    @given(j=joints(max_rows=4, max_cols=4, positive=True))
    @settings(max_examples=10, deadline=None)
    def test_conditional_and_joint(self, family, j):
        rows = [list(r) for r in j.rows]
        assert conditional_entropy(family, j) == pytest.approx(
            ref_conditional_entropy(family, rows), rel=1e-11, abs=1e-12
        )
        assert joint_entropy(family, j) == pytest.approx(
            ref_joint_entropy(family, rows), rel=1e-12, abs=1e-13
        )


class TestShannonLimits:
    @given(distributions(min_size=2, max_size=16, positive=True))
    @settings(max_examples=30)
    def test_renyi_near_one(self, p):
        base = entropy(shannon(-1.0), p)
        for eps in (1e-5, -1e-5):
            assert abs(entropy(renyi(1.0 + eps), p) - base) <= 1e-3

    @given(distributions(min_size=2, max_size=16, positive=True))
    @settings(max_examples=30)
    def test_tsallis_near_one(self, p):
        # the lam = 1 - alpha normalization limits to the natural-log
        # Shannon member, i.e. tau = -ln 2 in the base-2 parameterization
        base = entropy(shannon(-math.log(2.0)), p)
        for eps in (1e-5, -1e-5):
            assert abs(entropy(tsallis(1.0 + eps), p) - base) <= 1e-3

    @given(distributions(min_size=2, max_size=16, positive=True))
    @settings(max_examples=30)
    def test_havrda_charvat_near_one(self, p):
        # the bit-normalized member is the one that limits to Shannon(-1)
        base = entropy(shannon(-1.0), p)
        for eps in (1e-5, -1e-5):
            assert abs(entropy(havrda_charvat(1.0 + eps), p) - base) <= 1e-3


def test_conditional_overflow_text_is_weighted_means():
    """The exponential means of a batch of joints overflow with the text
    that the first overflowing term raises in a per-term loop."""
    from gentropies import JointDistribution, escort, marginal
    from gentropies.distributions import conditional, group_marginals
    from gentropies.generators import ExponentialGenerator
    import libm_reference as libm

    # beta = 0.5, kappa = 3.5: a row holding 1e-110 has entropy near 313,
    # and 2**(3.5 * 313) is past the float range
    family = general_escort(-3.0, -1.0, 3.5)
    fine = make_joint([[0.25, 0.25], [0.25, 0.25]])
    tiny = make_joint([[0.25, 0.25], [0.5, 1e-110]])
    tinier = make_joint([[0.5, 1e-120], [0.5]])
    # the three joints' rows end to end, and the row where each joint starts
    batch, groups = JointDistribution([*fine.rows, *tiny.rows, *tinier.rows]), [0, 2, 4, 6]
    rows, bounds, weights, starts = entropies.conditional_rows(
        family, batch, groups, group_marginals(batch, groups))
    values = entropies.span_entropies(family, rows, bounds)
    with pytest.raises(Overflow, match="generator exponent") as batched:
        entropies.conditional_means(family, weights, values, starts)
    weights = escort(marginal(tiny), family.alpha).probs
    terms = [(w, entropy(family, conditional(tiny, k))) for k, w in enumerate(weights)]
    with pytest.raises(Overflow) as alone:
        libm.weighted_mean(ExponentialGenerator(kappa=family.mean_kappa), terms)
    assert str(batched.value) == str(alone.value)
    with pytest.raises(Overflow) as public:
        conditional_entropy(family, tiny)
    assert str(public.value) == str(alone.value)


# GeneralEscort takes one log2 per cell: its formula equals the composition
# of the separate kernels bit for bit.


def _escort_formula_from_separate_kernels(family, flat, bounds):
    from gentropies._stable import escort_weights, log2_power_sum

    if family.lam == 0.0:  # per run, the exact sum of numpy's log2(p) * w over positive p
        weights = escort_weights(flat, bounds, family.alpha)
        runs = [(flat[i:j], weights[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
        return [family.tau * math.fsum((np.log2(p[p > 0.0]) * w[p > 0.0]).tolist())
                for p, w in runs]
    beta = log2_power_sum(flat, bounds, family.beta)
    alpha = log2_power_sum(flat, bounds, family.alpha)
    return [-(b - a) / family.lam for b, a in zip(beta, alpha)]


@pytest.mark.parametrize(
    "family",
    [
        general_escort(2.0, -1.0, 1.0),
        general_escort(1.0, -1.0, -0.5),
        general_escort(2.0, -1.0, 0.0),
    ],
    ids=repr,
)
@pytest.mark.parametrize(
    "lengths",
    [[2, 7, 1, 255, 40], [256, 300, 1000], [3, 256, 1, 700, 255, 2]],
    ids=["short", "long", "mixed"],
)
def test_shared_log2_equals_the_separate_kernels(family, lengths):
    rng = np.random.default_rng(len(lengths))
    parts = []
    for m in lengths:
        x = rng.exponential(1.0, m) ** 4
        x[rng.random(m) < 0.3] = 0.0  # zeros in most spans
        x[rng.integers(0, m)] = 1.0
        parts.append(x / x.sum())
    flat = np.concatenate(parts)[lengths[0]:]  # a view past the first span
    bounds = np.cumsum([0, *lengths[1:]])
    got = span_entropies(family, flat, bounds)
    expected = _escort_formula_from_separate_kernels(family, flat, bounds)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


# Shannon is the alpha = 1 member of the lam == 0 escort branch, and Nath at
# alpha = 1 is Shannon whatever its lam: the three share one formula.
@pytest.mark.parametrize("tau", [-1.0, -1.5])
def test_the_lambda_zero_members_at_alpha_1_are_shannon_bit_for_bit(tau):
    lengths = [1, 255, 256, 2 ** 15 + 1]
    rng = np.random.default_rng(7)
    rows = []
    for m in lengths:
        x = rng.exponential(1.0, m) ** 4
        x[rng.random(m) < 0.3] = 0.0  # zeros in every run but the one-entry one
        x[rng.integers(0, m)] = 1.0
        rows.append(x / x.sum())
    flat, bounds = np.concatenate(rows), np.cumsum([0, *lengths])
    joint = make_joint([row / len(rows) for row in rows])

    def bits(family):
        return ([entropy(family, make_distribution(row)).hex() for row in rows],
                [v.hex() for v in span_entropies(family, flat, bounds)],
                conditional_entropy(family, joint).hex())

    expected = bits(shannon(tau))
    assert bits(nath(1.0, 0.5, tau)) == expected
    assert bits(general_escort(1.0, tau, 0.0)) == expected


# The kernels keep their own numpy error state: entries of 1e-300 underflow
# the max-factored terms of renyi(100) and of the escorts, and the powers of
# tsallis(3), which under the caller's errstate(all="raise") must not matter.

ERROR_STATE_FAMILIES = [renyi(100.0), tsallis(3.0), general_escort(2.0, -1.0, -1.0), shannon()]


@pytest.mark.parametrize("n", [8, 300])
@pytest.mark.parametrize("family", ERROR_STATE_FAMILIES, ids=repr)
def test_results_do_not_depend_on_the_callers_numpy_error_state(family, n):
    rng = np.random.default_rng(n)
    rows = rng.exponential(1.0, (2, n))
    rows[:, ::3] = 1e-300
    p, joint = make_distribution(rows[0] / rows[0].sum()), make_joint(rows / rows.sum())

    def results():
        return [entropy(family, p).hex(), conditional_entropy(family, joint).hex(),
                [w.hex() for w in escort(p, family.alpha).probs]]

    expected = results()
    with np.errstate(all="raise"):
        assert results() == expected


def test_an_underflowing_formula_does_not_depend_on_the_callers_numpy_error_state():
    # tau * sum p log p is subnormal and inexact, so numpy flags an underflow
    family, p = shannon(-1e-310), make_distribution([0.25, 0.75])
    expected = entropy(family, p)
    assert 0.0 < expected < 2.2e-308
    with np.errstate(all="raise"):
        assert entropy(family, p) == expected


# the escort weights times subnormal row entropies, and the weights times
# subnormal generator values, are inexact subnormals: numpy flags an underflow
PAIR_JOINT = make_joint([[0.1, 0.2], [0.3, 0.4]])
UNDERFLOWING_MEANS = {
    "conditional_entropy": lambda: conditional_entropy(shannon(-1e-310), PAIR_JOINT),
    "strong_additivity_residual": lambda: strong_additivity_residual(shannon(-1e-310), PAIR_JOINT),
    "quasi_mean": lambda: quasi_mean(ExponentialGenerator(kappa=1.0),
                                     make_distribution([0.3, 0.7]), [1e-310, 3e-310]),
}


@pytest.mark.parametrize("case", sorted(UNDERFLOWING_MEANS))
def test_an_underflowing_mean_does_not_depend_on_the_callers_numpy_error_state(case):
    expected = UNDERFLOWING_MEANS[case]()
    assert 0.0 < abs(expected) < 2.2e-308
    with np.errstate(all="raise"):
        assert UNDERFLOWING_MEANS[case]() == expected


# Products and quotients that underflow to inexact subnormals or to zero: the
# outer products of (1e-200, 1 - 1e-200) with itself, the divisions by the
# sums in the constructors, `marginal` and `conditional`, and the array forms
# of the generators and of the deformation map, whose scalar forms return the
# subnormal
TINY_PAIR = make_distribution([1e-200, 1 - 1e-200])
TINY_JOINT = make_joint([[1e-310, 0.5], [0.5 + 1e-10]])
UNDERFLOWING_BUILDS = {
    "direct_product": lambda: direct_product(TINY_PAIR, TINY_PAIR).rows,
    "product_additivity_residual":
        lambda: product_additivity_residual(shannon(), TINY_PAIR, TINY_PAIR),
    "make_distribution": lambda: make_distribution([1e-310, 1 + 1e-10]).probs,
    "make_joint": lambda: make_joint([[1e-310, 0.5], [0.5 + 1e-10]]).rows,
    # the raw constructor trusts its rows: `marginal` divides their total 0.9 out
    "marginal": lambda: marginal(JointDistribution([[1e-310], [0.3, 0.6]])).probs,
    "conditional": lambda: conditional(TINY_JOINT, 0).probs,
    "ExponentialGenerator.evaluate":
        lambda: ExponentialGenerator(1.0, gamma=1e300).evaluate(np.array([1e-10, 2.0])),
    "Deformation.h": lambda: Deformation(1e300).h(np.array([1e-300, 1e-310])),
    "LinearGenerator.evaluate":
        lambda: LinearGenerator(c=1e-300).evaluate(np.array([1e-20, 2.0])),
}


def _hexes(value):
    return value.hex() if isinstance(value, float) else [_hexes(v) for v in value]


@pytest.mark.parametrize("case", sorted(UNDERFLOWING_BUILDS))
def test_an_underflowing_product_or_quotient_does_not_depend_on_the_callers_error_state(case):
    expected = _hexes(UNDERFLOWING_BUILDS[case]())
    with np.errstate(all="raise"):
        assert _hexes(UNDERFLOWING_BUILDS[case]()) == expected


def test_threads_keep_their_own_numpy_error_state():
    # the kernels set numpy's error state per call: a thread that calls them
    # concurrently with others gets its results, and keeps its own state
    family, p = renyi(100.0), make_distribution([1e-300, 0.25, 0.75 - 1e-300])
    joint = make_joint([[0.1, 1e-300, 0.2], [0.3, 0.4, 0.0]])
    expected = (entropy(family, p), conditional_entropy(family, joint))
    states = [{"all": "raise"}, {"all": "ignore"}, {"over": "raise", "under": "ignore"},
              {"divide": "warn", "invalid": "raise"}]
    start, failures = threading.Barrier(len(states)), []

    def work(state):
        try:
            with np.errstate(**state):
                mine = np.geterr()
                start.wait()
                for _ in range(200):
                    assert (entropy(family, p), conditional_entropy(family, joint)) == expected
                    assert np.geterr() == mine
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(state,)) for state in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


# `span_entropies` returns one float64 array, one entry per run, and each entry
# has the bits of `entropy` of its run alone: runs of one entry, around the
# exact sum's one-fsum size and past one block of it, with zeros, for every
# family class and both branches of Nath and of the general escort.
SPAN_FAMILIES = [shannon(), nath(1.0, 0.0, -1.5), renyi(2.0), tsallis(2.0),
                 general_escort(2.0, -1.0, 0.0), general_escort(2.0, -1.0, -0.5)]


@pytest.mark.parametrize("family", SPAN_FAMILIES, ids=repr)
def test_span_entropies_is_one_array_with_the_bits_of_each_run_alone(family):
    rng = np.random.default_rng(31)
    lengths = [1, 2, 255, 256, 2 ** 15 + 1]
    dists = []
    for m in lengths:
        x = rng.exponential(1.0, m)
        x[rng.random(m) < 0.2] = 0.0
        x[rng.integers(0, m)] = 1.0  # a positive entry in every run
        dists.append(make_distribution((x / x.sum()).tolist()))
    flat = np.concatenate([np.array(d.probs) for d in dists])
    got = span_entropies(family, flat, np.cumsum([0, *lengths]))
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (len(lengths),)
    # entropy adds 0.0, which turns a point mass's -0.0 into 0.0
    assert [(v + 0.0).hex() for v in got.tolist()] == [entropy(family, d).hex() for d in dists]
