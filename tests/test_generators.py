import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import distributions
from gentropies import (
    DimensionError,
    DomainError,
    ExponentialGenerator,
    LinearGenerator,
    Overflow,
    ParameterError,
    make_distribution,
    quasi_mean,
    uniform,
)
from gentropies.generators import weighted_means
import libm_reference as libm
from reference import ref_quasi_mean_exponential, ref_quasi_mean_linear

exponential_gens = st.builds(
    ExponentialGenerator,
    kappa=st.floats(0.1, 2.0).flatmap(lambda k: st.sampled_from([k, -k])),
    gamma=st.floats(0.5, 2.0).flatmap(lambda g: st.sampled_from([g, -g])),
    shift=st.floats(-3.0, 3.0),
)
linear_gens = st.builds(
    LinearGenerator,
    c=st.floats(0.25, 4.0).flatmap(lambda c: st.sampled_from([c, -c])),
    shift=st.floats(-3.0, 3.0),
)
generators = st.one_of(linear_gens, exponential_gens)


@st.composite
def weighted_values(draw, positive=False, min_size=2, max_size=6):
    w = draw(distributions(min_size=min_size, max_size=max_size, positive=positive))
    values = draw(
        st.lists(st.floats(-6.0, 6.0, allow_nan=False), min_size=len(w), max_size=len(w))
    )
    return w, values


class TestEvaluation:
    def test_linear(self):
        assert LinearGenerator(c=1.0).evaluate(3.0) == -3.0
        assert LinearGenerator(c=1.0).invert(-3.0) == 3.0

    def test_exponential_half(self):
        g = ExponentialGenerator(kappa=-1.0, gamma=1.0)
        assert g.evaluate(1.0) == -0.5
        assert g.invert(-0.5) == 1.0

    def test_exponential_out_of_range(self):
        g = ExponentialGenerator(kappa=-1.0, gamma=1.0)
        with pytest.raises(DomainError):
            g.invert(-2.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            LinearGenerator(c=0.0)
        with pytest.raises(ParameterError):
            ExponentialGenerator(kappa=0.0)
        with pytest.raises(ParameterError):
            ExponentialGenerator(kappa=1.0, gamma=0.0)

    @given(generators, st.floats(-6.0, 6.0))
    def test_round_trip(self, gen, x):
        assert gen.invert(gen.evaluate(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    @given(generators)
    def test_strictly_monotone(self, gen):
        points = [gen.evaluate(x) for x in (-4.0, -1.0, 0.0, 0.5, 2.0, 5.0)]
        diffs = [b - a for a, b in zip(points, points[1:])]
        assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


class TestQuasiMean:
    def test_degenerate_weights(self):
        w = make_distribution((1.0, 0.0))
        assert quasi_mean(LinearGenerator(), w, (7.0, 123.0)) == pytest.approx(7.0, abs=1e-12)
        g = ExponentialGenerator(kappa=-1.0)
        assert quasi_mean(g, w, (7.0, 123.0)) == pytest.approx(7.0, rel=1e-12)

    def test_worked_example(self):
        # independently computed: -log2(3/4)
        g = ExponentialGenerator(kappa=-1.0, gamma=1.0)
        m = quasi_mean(g, uniform(2), (0.0, 1.0))
        assert m == pytest.approx(0.4150374992788438, abs=1e-15)
        assert m == pytest.approx(
            ref_quasi_mean_exponential(-1.0, 1.0, 0.0, (0.5, 0.5), (0.0, 1.0)), abs=1e-14
        )

    @pytest.mark.parametrize("gamma, shift", [(1.0, 0.0), (-2.5, 0.5)])
    def test_saturated_exponential_mean(self, gamma, shift):
        # 2**(-99 * 8) is far below the rounding of 1: expm1 returns -1 for
        # both values, yet the mean is finite (just above 8).  The oracle's
        # generator form cancels 1 - 2**-800 too, so it runs at 300 digits.
        g = ExponentialGenerator(kappa=-99.0, gamma=gamma, shift=shift)
        w = make_distribution((0.25, 0.75))
        with mpmath.workdps(300):
            ref = ref_quasi_mean_exponential(-99.0, gamma, shift, w.probs, (8.0, 9.0))
        assert 8.0 < ref < 8.1
        assert quasi_mean(g, w, (8.0, 9.0)) == pytest.approx(ref, rel=1e-14)

    @given(generators, distributions(min_size=1, max_size=6), st.floats(-6.0, 6.0))
    def test_idempotent_on_constants(self, gen, w, v):
        values = (v,) * len(w)
        assert abs(quasi_mean(gen, w, values) - v) <= 1e-10 * (1.0 + abs(v))

    @given(generators, weighted_values())
    def test_internal(self, gen, pair):
        w, values = pair
        supported = [v for v, wk in zip(values, w.probs) if wk > 0.0]
        assume(supported)
        m = quasi_mean(gen, w, values)
        pad = 1e-10 * (1.0 + max(abs(v) for v in supported))
        assert min(supported) - pad <= m <= max(supported) + pad

    @given(generators, weighted_values(positive=True), st.floats(0.1, 2.0))
    def test_monotone(self, gen, pair, bump):
        w, values = pair
        before = quasi_mean(gen, w, values)
        raised = list(values)
        raised[0] += bump
        after = quasi_mean(gen, w, raised)
        assert after >= before - 1e-10 * (1.0 + abs(before))

    @given(
        st.floats(0.1, 2.0).flatmap(lambda k: st.sampled_from([k, -k])),
        st.floats(0.5, 2.0).flatmap(lambda g: st.sampled_from([g, -g])),
        st.floats(-3.0, 3.0),
        weighted_values(),
    )
    def test_affine_invariance_exponential(self, kappa, gamma, shift, pair):
        # same kappa, any gamma/shift: the generators differ by an affine
        # map of the output, so the mean must not move
        w, values = pair
        base = quasi_mean(ExponentialGenerator(kappa=kappa), w, values)
        other = quasi_mean(ExponentialGenerator(kappa=kappa, gamma=gamma, shift=shift), w, values)
        assert abs(base - other) <= 1e-10 * (1.0 + abs(base))

    @given(linear_gens, weighted_values())
    def test_linear_reduces_to_arithmetic_mean(self, gen, pair):
        w, values = pair
        mean = quasi_mean(gen, w, values)
        arithmetic = math.fsum(wk * v for wk, v in zip(w.probs, values))
        assert abs(mean - arithmetic) <= 1e-12 * (1.0 + abs(arithmetic))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            quasi_mean(LinearGenerator(), uniform(2), (1.0,))

    def test_zero_weight_values_are_ignored(self):
        w = make_distribution((0.5, 0.5, 0.0))
        g = ExponentialGenerator(kappa=1.0)
        assert quasi_mean(g, w, (1.0, 2.0, math.nan)) == pytest.approx(
            quasi_mean(g, uniform(2), (1.0, 2.0)), rel=1e-14
        )

    @given(linear_gens, weighted_values())
    def test_matches_reference_linear(self, gen, pair):
        w, values = pair
        ours = quasi_mean(gen, w, values)
        ref = ref_quasi_mean_linear(gen.c, gen.shift, w.probs, values)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @given(exponential_gens, weighted_values())
    def test_matches_reference_exponential(self, gen, pair):
        w, values = pair
        ours = quasi_mean(gen, w, values)
        ref = ref_quasi_mean_exponential(gen.kappa, gen.gamma, gen.shift, w.probs, values)
        assert ours == pytest.approx(ref, rel=1e-11, abs=1e-12)


def _one_run(generator, terms):
    """`weighted_means` of the (weight, value) ``terms`` as one run."""
    weights, values = np.array(terms, dtype=np.float64).reshape(-1, 2).T
    return weighted_means(generator, weights, values, [0, len(terms)])[0]


def _mean_outcome(mean, generator, terms):
    """The mean in hex, or the type and text of its error."""
    try:
        value = mean(generator, terms)
    except (Overflow, DomainError) as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(value) else value.hex()


@given(
    generator=st.one_of(exponential_gens, linear_gens, st.sampled_from([
        ExponentialGenerator(kappa=1.0), ExponentialGenerator(kappa=-3.5),
        ExponentialGenerator(kappa=100.0),
    ])),
    terms=st.lists(
        st.tuples(
            st.floats(1e-3, 1.0),
            st.one_of(st.floats(-20.0, 20.0), st.floats(-3000.0, 3000.0)),
        ),
        max_size=30,
    ),
)
@settings(max_examples=300, deadline=None)
def test_weighted_mean_equals_the_per_term_reference(generator, terms):
    """g evaluated on all values at once gives the bits of one expm1 per
    term, through the saturated branch and up to the same `Overflow` text."""
    assert _mean_outcome(_one_run, generator, terms) == _mean_outcome(
        libm.weighted_mean, generator, terms)
