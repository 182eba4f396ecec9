import functools
import hashlib
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import distributions
from gentropies import (
    Deformation,
    DimensionError,
    DomainError,
    ExponentialGenerator,
    FormatError,
    GentropiesError,
    LinearGenerator,
    NotNormalized,
    Overflow,
    ParameterError,
    make_distribution,
    quasi_mean,
    uniform,
)
from gentropies.generators import weighted_means
import libm_reference as libm
from reference import ref_exp_coordinate, ref_quasi_mean_exponential, ref_quasi_mean_linear

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters(self, bad):
        for params in ((bad, 0.0), (1.0, bad)):
            with pytest.raises(ParameterError, match="^linear generator parameters must be finite$"):
                LinearGenerator(*params)
        for params in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 1.0, bad)):
            with pytest.raises(
                ParameterError, match="^exponential generator parameters must be finite$"
            ):
                ExponentialGenerator(*params)

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
@example(ExponentialGenerator(kappa=1.0), [(1.0, 979.0), (1.0, 1024.0)])  # finite terms, sum past
@settings(max_examples=300, deadline=None)
def test_weighted_mean_equals_the_per_term_reference(generator, terms):
    """g evaluated on all values at once gives the bits of one expm1 per
    term, through the saturated branch and up to the same `Overflow` text,
    also where the finite terms sum past the float range."""
    assert _mean_outcome(_one_run, generator, terms) == _mean_outcome(
        libm.weighted_mean, generator, terms)


@pytest.mark.parametrize("generator", [
    ExponentialGenerator(kappa=-1.0),
    ExponentialGenerator(kappa=2.5, gamma=-4.0, shift=0.5),
    LinearGenerator(c=-3.0, shift=1.5),
], ids=repr)
def test_all_runs_invert_as_each_alone(generator):
    """`_invert_means`, which inverts all of `weighted_means`' runs at once,
    gives each run the bits of its own `invert_mean`, also where
    gamma*acc + 1 <= 0, where gamma*acc leaves the float range and where acc
    is not finite."""
    acc = [0.25, -0.5, -1.0, -2.0, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan, -0.0]
    weights = np.full(2 * len(acc), 0.5)
    values = np.linspace(-3.0, 3.0, 2 * len(acc))
    starts = list(range(0, len(values) + 1, 2))
    alone = [generator.invert_mean(a, weights[i:j], values[i:j])
             for a, i, j in zip(acc, starts, starts[1:])]
    together = generator._invert_means(acc, weights, values, starts)
    assert [m.hex() for m in together] == [m.hex() for m in alone]


# A seeded grid over the lambda-exponential coordinate (2**(r*x) - 1)/s and
# its inverse, as every caller reaches it.  Each outcome is the float hex of
# the result or the name of the error, and each caller's outcomes are pinned
# by one SHA-256, so a change that moves any bit shows up here.  Every
# exponent stays inside the float range, and the partially saturated
# exponential mean is left out.
_RATES = [s * r for r in (1e-12, 0.3, 1.0, 7.0, 99.0) for s in (1.0, -1.0)]
_FIXED = [0.0, -0.0, 5e-324, -1e-300, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan]
_DYADIC = make_distribution((0.5, 0.25, 0.125, 0.125))


def _grid_xs(rate, rng):
    return _FIXED + [rng.uniform(-60.0, 60.0) / abs(rate) for _ in range(16)]


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except GentropiesError as exc:
        return type(exc).__name__
    if isinstance(value, np.ndarray):
        return ",".join(v.hex() for v in value.tolist())
    return value.hex()


@functools.lru_cache(maxsize=1)
def _coordinate_outcomes():
    rng = random.Random(2013)
    out = {"h": [], "h_inv": [], "negate": [], "subtract": [], "evaluate": [],
           "evaluate_array": [], "invert": [], "mean_log1p": [], "mean_saturated": []}
    for lam in [0.0, *_RATES]:
        d = Deformation(lam)
        xs = _grid_xs(lam or 1.0, rng)
        ys = [d.h(x) for x in xs] + ([-1.0 / lam, -2.0 / lam] if lam else [])
        out["h"] += [_outcome(d.h, x) for x in xs]
        out["h_inv"] += [_outcome(d.h_inv, y) for y in ys]
        out["negate"] += [_outcome(d.negate, y) for y in ys if not math.isnan(y)]
        out["subtract"] += [_outcome(d.subtract, x, y) for x in xs[::3] for y in ys]
    for kappa in _RATES:
        for gamma, shift in ((1.0, 0.0), (-2.5, 0.75), (kappa, -3.0)):
            g = ExponentialGenerator(kappa, gamma, shift)
            xs = [x - shift for x in _grid_xs(kappa, rng)]
            ys = [g.evaluate(x) for x in xs] + [-1.0 / gamma, -2.0 / gamma]
            out["evaluate"] += [_outcome(g.evaluate, x) for x in xs]
            out["evaluate_array"].append(_outcome(g.evaluate, np.array(xs)))
            out["invert"] += [_outcome(g.invert, y) for y in ys]
            for _ in range(4):
                raw = [rng.random() for _ in range(5)]
                weights = make_distribution([r / math.fsum(raw) for r in raw])
                values = [rng.uniform(-40.0, 40.0) / abs(kappa) - shift for _ in range(5)]
                out["mean_log1p"].append(_outcome(quasi_mean, g, weights, values))
        for gamma in (1.0, -1.0, 2.0, -0.5):  # gamma * acc = -1 exactly: every term at -1
            g = ExponentialGenerator(kappa, gamma, 0.25)
            for _ in range(4):
                values = [rng.uniform(-200.0, -61.0) / kappa - 0.25 for _ in range(4)]
                out["mean_saturated"].append(_outcome(quasi_mean, g, _DYADIC, values))
    return out


_COORDINATE_DIGESTS = {
    "h": "d728ca7cf59c6d83e7df4631768b36d8fec96f1ae41f0a9301a768ac2b4ae549",
    "h_inv": "3ab0f5c2a69caf74dc3da6c462196fa91a31458711e395c380f7a80c07e268bd",
    "negate": "15bcecb4180874ff0d25dd321005809a37cdcf94f8d8ebee844c7f096074e126",
    "subtract": "7c66b91e0bf5503e8863bdcca7c9470b7d6cb5cc5d0163d33361b0fd12d5d066",
    "evaluate": "ec1aa18adcac3ba1ca3ddf54efac5bdcdcf401c93ae3e5911f57ad47d78649a7",
    "evaluate_array": "8141483026673805cf49420d30dbeb8889a87eaff7635649c8a27febef73cf7d",
    "invert": "08350b785c752bd387a0f2460b2503428d5ef21951ef0c46e17e10eab535346a",
    "mean_log1p": "4dabe998eef257496367c0e5dc77630d1241668f55880ffd719e5843b70e9385",
    "mean_saturated": "67df12691fd11f8794fad7b4e7779c6eabf3dad54810b4df4101333bb54ddc53",
}


@pytest.mark.parametrize("caller", sorted(_COORDINATE_DIGESTS))
def test_coordinate_bits_are_pinned(caller):
    outcomes = _coordinate_outcomes()[caller]
    assert hashlib.sha256(";".join(outcomes).encode()).hexdigest() == _COORDINATE_DIGESTS[caller]


@pytest.mark.parametrize(
    "generator, values, first",
    [
        (ExponentialGenerator(3.0), [0.0, 1e308, 1000.0], 1e308),
        (ExponentialGenerator(-3.0, shift=1.0), [0.0, -1e308], -1e308),
        (ExponentialGenerator(1.0, gamma=1e-300), [0.0, 1000.0, 2000.0], 1000.0),
        (ExponentialGenerator(1.0, gamma=1e-300), [1.0, 2000.0, 1000.0], 2000.0),
        # expm1 overflows and |gamma| > 1 brings the quotient back near the
        # edge: (2**1026 - 1)/4 = 2**1024 - 1/4 rounds past DBL_MAX
        (ExponentialGenerator(1.0, gamma=4.0), [0.0, 1026.0], 1026.0),
    ],
    ids=["product", "negative-product", "quotient-first", "expm1-first", "quotient-edge"],
)
def test_results_past_the_range_raise(generator, values, first):
    """A finite argument whose result leaves the float range raises, never
    saturates; on an array, with the message of its first such entry."""
    with pytest.raises(Overflow, match="generator exponent") as alone:
        generator.evaluate(first)
    with pytest.raises(Overflow) as batched:
        generator.evaluate(np.array(values))
    assert str(batched.value) == str(alone.value)
    with pytest.raises(Overflow):
        quasi_mean(generator, uniform(2), [first, 0.0])


@pytest.mark.parametrize("kappa, gamma", [(1.0, 4.0), (1.0, -4.0), (-2.0, 3.0), (0.5, 1.5)])
def test_evaluate_near_the_edge_of_the_float_range(kappa, gamma):
    """Within 1e-3 of the x where (2**(kappa*x) - 1)/gamma leaves the float
    range, where expm1 has overflowed and the power of two is taken apart,
    evaluate is finite and within 1e-12 of mpmath exactly where the rounded
    true value is finite, and raises `Overflow` elsewhere.  kappa is a power
    of two, so that kappa*x is exact."""
    g = ExponentialGenerator(kappa, gamma)
    edge = (math.log2(abs(gamma)) + math.log2(sys.float_info.max)) / kappa
    rng = random.Random(1311)
    for _ in range(1000):  # offsets log-uniform in [1e-15, 1e-3], where rounding decides
        x = edge + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -3.0)
        expected = ref_exp_coordinate(x, kappa, gamma)
        if math.isinf(expected):
            with pytest.raises(Overflow, match="generator exponent"):
                g.evaluate(x)
        else:
            assert g.evaluate(x) == pytest.approx(expected, rel=1e-12)


def test_a_shift_past_the_range_raises():
    """The limit of an infinite argument applies to x, not to x + shift: a
    finite x whose shifted exponent overflows raises, alone or in an array."""
    g = ExponentialGenerator(1.0, shift=1e308)
    with pytest.raises(Overflow, match="generator exponent") as alone:
        g.evaluate(1e308)
    with pytest.raises(Overflow) as batched:
        g.evaluate(np.array([1e308, 0.0]))
    assert str(batched.value) == str(alone.value)
    falling = ExponentialGenerator(-1.0, shift=1e308)
    assert falling.evaluate(1e308) == -1.0
    assert falling.evaluate(np.array([1e308, 0.0])).tolist() == [-1.0, -1.0]


def test_integer_past_the_float_range_overflows():
    with pytest.raises(Overflow, match="generator argument is an integer past the float range"):
        ExponentialGenerator(1.0).evaluate(10 ** 400)


def test_nonfinite_arguments_keep_their_limits():
    g = ExponentialGenerator(2.0, gamma=-4.0)
    xs = [math.nan, math.inf, -math.inf, 0.0, -0.0, 3.0]
    batched = g.evaluate(np.array(xs)).tolist()
    assert [float.hex(v) for v in batched] == [float.hex(g.evaluate(x)) for x in xs]
    assert math.isnan(batched[0]) and batched[1] == -math.inf and batched[2] == 0.25


@pytest.mark.parametrize(
    "values, error, message",
    [
        ([None, 1.0], FormatError, "value entry None is not a number"),
        (["abc", 1.0], FormatError, "value entry 'abc' is not a number"),
        ([[1.0], 1.0], FormatError, r"value entry \[1.0\] is not a number"),
        ([1.0, 10 ** 400], NotNormalized, "value entry 1000+ is not finite"),
        (3.0, FormatError, "values 3.0 is not a sequence"),
    ],
    ids=["none", "string", "nested", "int-beyond-float", "scalar"],
)
def test_quasi_mean_refuses_values_that_are_not_floats(values, error, message):
    with pytest.raises(error, match=message):
        quasi_mean(ExponentialGenerator(1.0), uniform(2), values)


def test_quasi_mean_reads_values_like_make_distribution():
    g = ExponentialGenerator(-1.5, gamma=2.0)
    expected = quasi_mean(g, uniform(2), [1.5, 0.25])
    assert quasi_mean(g, uniform(2), iter([1.5, 0.25])) == expected
    assert quasi_mean(g, uniform(2), (v for v in [1.5, 0.25])) == expected
    assert quasi_mean(g, uniform(2), ["1.5", 0.25]) == expected
    assert quasi_mean(g, uniform(2), np.array([1.5, 0.25])) == expected
    # a value of weight 0 stays a placeholder, whatever it is
    w = make_distribution([0.5, 0.0, 0.5])
    assert quasi_mean(g, w, [1.5, None, 0.25]) == expected
    with pytest.raises(DimensionError):
        quasi_mean(g, uniform(2), iter([1.0]))


def test_quasi_mean_keeps_nonfinite_values():
    assert quasi_mean(LinearGenerator(), uniform(2), [math.inf, 1.0]) == math.inf
    assert math.isnan(quasi_mean(LinearGenerator(), uniform(2), [math.nan, 1.0]))
    assert math.isnan(quasi_mean(ExponentialGenerator(1.0), uniform(2), [math.nan, 1.0]))
