import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import constrained_grid
from hypothesis import given, settings, strategies as st

from trial_views import (
    counts_of,
    joints_of,
    pairs_of,
    random_counts,
    random_joint,
    random_pair,
    reference_counts,
    reference_distributions,
    reference_joints,
    store_of_counts,
    store_of_joints,
    store_of_pairs,
)
from gentropies import (
    PROBE_JOINT,
    CheckConfig,
    ConfigError,
    Deformation,
    DimensionError,
    DomainError,
    Overflow,
    SingularElement,
    chain_residual,
    counterexample_probe,
    direct_product,
    entropy,
    general_escort,
    havrda_charvat,
    hct,
    joint_entropy,
    make_distribution,
    make_joint,
    marginal,
    product_additivity_residual,
    refinement_consistency,
    refinement_joint,
    renyi,
    run_suite,
    shannon,
    strong_additivity_residual,
    tsallis,
    uniform,
    uniform_trace,
    uniform_trace_residual,
)
from gentropies import _stable, checker, distributions, entropies
from gentropies._stable import _BLOCK, bounds_of, segment_sums
from gentropies.entropies import nath
from gentropies.checker import (
    MAX_CHAIN_LENGTH,
    MAX_SUITE_CELLS,
    PRNG_NAME,
    VIOLATION_THRESHOLD,
)

GRID = constrained_grid()
#: one member of each kind, for the checks that are too costly on the whole grid
THREE = [("shannon(-1)", shannon(-1.0)), ("renyi(2)", renyi(2.0)), ("tsallis(2)", tsallis(2.0))]
#: the members with escort exponent beta != 1, whose probe must fail
FORCING = [
    general_escort(1.0, -1.0, -0.5),
    general_escort(0.5, -1.0, 0.0),
    general_escort(1.0, -1.0, 1.0),
    general_escort(2.0, -1.0, 0.0),
    general_escort(2.0, -1.0, 1.0),
    general_escort(3.0, -1.0, 0.0),
]


def _refuse(*_):
    raise AssertionError("refused")


class TestStrongAdditivityResidual:
    def test_probe_is_fixed_joint(self):
        assert PROBE_JOINT.rows == ((0.5, 0.0), (0.25, 0.25))

    def test_shannon_identity(self):
        assert strong_additivity_residual(shannon(-1.0), PROBE_JOINT) < 1e-10

    def test_renyi_identity_on_probe(self):
        assert strong_additivity_residual(renyi(2.0), PROBE_JOINT) < 1e-10

    def test_general_escort_violation(self):
        # oracle value log2(5/4) = 0.3219...
        r = strong_additivity_residual(general_escort(2.0, -1.0, 1.0), PROBE_JOINT)
        assert r >= 1e-2
        assert r == pytest.approx(0.32192809488736235, rel=1e-12)

    @pytest.mark.parametrize("value", ["x", uniform(2)], ids=["str", "Distribution"])
    def test_the_joint_must_be_a_joint_distribution(self, value):
        with pytest.raises(TypeError, match="expected a JointDistribution"):
            strong_additivity_residual(renyi(2.0), value)

    @pytest.mark.parametrize(
        "residual, joint",
        [
            (strong_additivity_residual, direct_product(uniform(64), uniform(48))),
            (lambda family, _: counterexample_probe(family), PROBE_JOINT),
        ],
        ids=["strong_additivity_residual", "counterexample_probe"],
    )
    def test_a_reused_joint_keeps_its_exact_row_sums(self, residual, joint):
        first = residual(shannon(), joint)
        sums = joint._sums
        assert sums is not None
        assert residual(shannon(), joint) == first
        fresh = checker.JointDistribution._wrap(joint._flat.copy(), list(joint._bounds))
        assert residual(renyi(2.0), joint) == strong_additivity_residual(renyi(2.0), fresh)
        assert joint._sums is sums

    def test_a_joints_one_trial_store_is_the_joints_own_arrays(self):
        joint = make_joint([[0.125, 0.375], [0.25], [0.0, 0.125, 0.125]])
        store = checker._joint(joint)
        assert np.shares_memory(store.flat, joint._flat)
        assert np.shares_memory(store.bounds, joint._bounds)
        assert store.sums is joint._sums is not None
        assert store.offsets.tolist() == [0, 3]

    def test_a_held_joint_takes_no_second_row_sum_call(self, monkeypatch):
        joint = direct_product(uniform(64), uniform(48))
        calls = []

        def counted(values, bounds):
            calls.append(np.shares_memory(values, joint._flat))
            return segment_sums(values, bounds)

        monkeypatch.setattr(distributions, "segment_sums", counted)
        first = strong_additivity_residual(renyi(2.0), joint)
        assert calls.count(True) == 1
        calls.clear()
        assert strong_additivity_residual(renyi(2.0), joint) == first
        assert calls and True not in calls  # the marginal's total alone


class TestCounterexampleProbe:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_tsallis_constraint_holds(self, alpha):
        assert counterexample_probe(tsallis(alpha)) < 1e-10

    def test_general_escort_beta_three(self):
        assert counterexample_probe(general_escort(2.0, -1.0, 1.0)) >= 1e-2

    def test_shannon_scaled(self):
        assert counterexample_probe(shannon(-2.0)) < 1e-10


class TestChainResidual:
    def test_shannon_ten(self):
        assert chain_residual(shannon(-1.0), 10) < 1e-10

    def test_renyi_eight(self):
        assert chain_residual(renyi(2.0), 8) < 1e-10

    def test_tsallis_three_components(self):
        # both sides equal 7/8: T(U_8) and h(3 * h_inv(T(U_2))) at lam = -1
        family = tsallis(2.0)
        assert entropy(family, uniform(8)) == 0.875
        d = Deformation(-1.0)
        assert d.h(3 * d.h_inv(entropy(family, uniform(2)))) == pytest.approx(0.875, abs=1e-15)
        assert chain_residual(family, 3) < 1e-12

    def test_cap_covers_the_acceptance_trace(self):
        assert MAX_CHAIN_LENGTH >= 20

    @pytest.mark.parametrize("n", [0, MAX_CHAIN_LENGTH + 1, 10 ** 6])
    def test_out_of_range_raises_before_building(self, monkeypatch, n):
        def refuse(_):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(checker, "uniform", refuse)
        with pytest.raises(DimensionError, match=str(MAX_CHAIN_LENGTH)):
            chain_residual(shannon(-1.0), n)

    def test_length_must_be_an_integer(self):
        with pytest.raises(DimensionError, match="chain length must be an integer, got 3.0"):
            chain_residual(shannon(-1.0), 3.0)
        assert chain_residual(shannon(-1.0), np.int64(3)) == chain_residual(shannon(-1.0), 3)


@pytest.mark.parametrize("name, family", THREE)
def test_a_numpy_integer_dimension_gives_a_float(name, family):
    """The checked int is what the residual computes on: at lam = 0 the
    composition's h is the identity, and would pass an np.int64's arithmetic on."""
    assert type(chain_residual(family, np.int64(4))) is float
    assert type(uniform_trace_residual(family, np.int64(4))) is float


class TestUniformTraceResidual:
    def test_shannon_1024(self):
        assert uniform_trace_residual(shannon(-1.0), 1024) < 1e-12

    def test_havrda_charvat_normalization(self):
        assert uniform_trace_residual(havrda_charvat(2.0), 2) < 1e-12

    def test_tsallis_half_sixteen(self):
        assert uniform_trace_residual(tsallis(0.5), 16) < 1e-12

    @pytest.mark.parametrize("n", [2 ** MAX_CHAIN_LENGTH + 1, 2 ** 40])
    def test_too_large_raises_before_building(self, monkeypatch, n):
        monkeypatch.setattr(checker, "uniform", _refuse)
        with pytest.raises(DimensionError, match=f"2\\*\\*{MAX_CHAIN_LENGTH}, got {n}"):
            uniform_trace_residual(renyi(2.0), n)
        with pytest.raises(AssertionError, match="refused"):  # the cap itself is built
            uniform_trace_residual(renyi(2.0), 2 ** MAX_CHAIN_LENGTH)


class TestNonDyadicDimensions:
    """The paper's hypothesis is analyticity in the dimension n, so the trace
    and product additivity must hold where 1/n is not exact, too."""

    @staticmethod
    def relative_trace_residual(family, n):
        return uniform_trace_residual(family, n) / (1.0 + abs(uniform_trace(family, n)))

    @pytest.mark.parametrize("n", [3, 5, 7, 10, 100, 999, 1000, 3 ** 10])
    @pytest.mark.parametrize("_, family", GRID)
    def test_trace(self, _, family, n):
        assert self.relative_trace_residual(family, n) <= 1e-12

    @pytest.mark.parametrize("n", [10 ** 5, 999983, 2 * 3 ** 12])
    @pytest.mark.parametrize("_, family", THREE)
    def test_trace_large(self, _, family, n):
        assert self.relative_trace_residual(family, n) <= 1e-12

    @pytest.mark.parametrize("a, b", [(3, 7), (7, 1000)])
    @pytest.mark.parametrize("_, family", GRID)
    def test_product(self, _, family, a, b):
        assert product_additivity_residual(family, uniform(a), uniform(b)) <= 1e-9

    @pytest.mark.parametrize("_, family", THREE)
    def test_product_large(self, _, family):
        assert product_additivity_residual(family, uniform(999), uniform(1001)) <= 1e-9


class TestRefinementConsistency:
    def test_trivial_split(self):
        assert refinement_consistency(shannon(-1.0), (1, 1)) < 1e-10

    def test_one_three_shannon(self):
        # marginal entropy is 2 - 0.75*log2(3), oracle-verified
        assert entropy(shannon(-1.0), make_distribution((0.25, 0.75))) == pytest.approx(
            0.8112781244591328, abs=1e-15
        )
        assert refinement_consistency(shannon(-1.0), (1, 3)) < 1e-10

    def test_two_three_five_renyi(self):
        assert refinement_consistency(renyi(2.0), (2, 3, 5)) < 1e-9

    def test_counts_must_be_integers(self):
        """A count of 1.5 is not read as 1."""
        with pytest.raises(DimensionError, match="refinement count must be an integer, got 1.5"):
            refinement_consistency(renyi(2.0), [1.5, 2])
        counts = list(map(np.int64, (2, 3, 5)))
        assert refinement_consistency(renyi(2.0), counts) == refinement_consistency(
            renyi(2.0), (2, 3, 5))

    def test_counts_may_be_an_array(self):
        residual = refinement_consistency(renyi(2.0), np.array([1, 2]))
        assert residual.hex() == refinement_consistency(renyi(2.0), [1, 2]).hex()
        with pytest.raises(DimensionError):
            refinement_consistency(renyi(2.0), np.array([], dtype=int))

    def test_counts_may_be_an_iterator(self):
        residual = refinement_consistency(renyi(2.0), iter([1, 2]))
        assert residual.hex() == refinement_consistency(renyi(2.0), [1, 2]).hex()
        with pytest.raises(DimensionError, match="at least one block"):
            refinement_consistency(renyi(2.0), iter([]))

    @pytest.mark.parametrize("counts", [[2 ** 40, 1], [2 ** MAX_CHAIN_LENGTH, 1], [2 ** 62] * 4])
    def test_too_many_cells_raise_before_building(self, monkeypatch, counts):
        monkeypatch.setattr(checker, "_refinement", _refuse)
        message = f"2\\*\\*{MAX_CHAIN_LENGTH} cells, got {sum(counts)}"
        with pytest.raises(DimensionError, match=message):
            refinement_consistency(renyi(2.0), np.array(counts, dtype=np.int64))
        with pytest.raises(AssertionError, match="refused"):  # the cap itself is built
            refinement_consistency(renyi(2.0), [2 ** MAX_CHAIN_LENGTH - 1, 1])


class TestProductAdditivityResidual:
    @pytest.mark.parametrize("_, family", GRID)
    def test_point_mass_factor(self, _, family):
        point = make_distribution((1.0, 0.0))
        q = make_distribution((0.2, 0.3, 0.5))
        assert product_additivity_residual(family, point, q) < 1e-12

    def test_renyi_three(self):
        p = make_distribution((0.1, 0.9))
        q = make_distribution((0.4, 0.6))
        assert product_additivity_residual(renyi(3.0), p, q) < 1e-9

    def test_tsallis_coin_pair(self):
        # T(U_4) = 0.75 = 0.5 + 0.5 - 0.25
        family = tsallis(2.0)
        assert entropy(family, uniform(4)) == 0.75
        assert product_additivity_residual(family, uniform(2), uniform(2)) == 0.0

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_a_factor_must_be_a_distribution(self, side):
        factors = {"p": uniform(2), "q": uniform(3), side: direct_product(uniform(2), uniform(2))}
        with pytest.raises(TypeError, match="expected a Distribution, got JointDistribution"):
            product_additivity_residual(renyi(2.0), factors["p"], factors["q"])


class TestCheckConfig:
    def test_defaults_valid(self):
        cfg = CheckConfig(family=shannon())
        assert cfg.trials == 100 and cfg.tolerance == 1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
            {"max_rows": 1},
            {"max_cols": 0},
            {"seed": -1},
            {"seed": 2 ** 64},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CheckConfig(family=shannon(), **kwargs)

    @pytest.mark.parametrize(
        "field, value", [("trials", 10.0), ("max_rows", 8.5), ("max_cols", "8"), ("seed", 1.5)]
    )
    def test_integer_fields_refuse_other_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            run_suite(CheckConfig(renyi(2.0), **{"trials": 5, field: value}))

    def test_numpy_integers_are_stored_as_ints(self):
        values = {"trials": 5, "max_rows": 4, "max_cols": 3, "seed": 7}
        cfg = CheckConfig(renyi(2.0), **{k: np.int64(v) for k, v in values.items()})
        assert all(type(getattr(cfg, k)) is int for k in values)
        assert run_suite(cfg).to_json() == run_suite(CheckConfig(renyi(2.0), **values)).to_json()


class TestRunSuite:
    def test_shannon_passes(self):
        report = run_suite(CheckConfig(family=shannon(-1.0), trials=100, seed=42))
        assert report.verdict == "pass"
        strong = next(c for c in report.checks if c.name == "strong_additivity")
        assert strong.max_residual < 1e-10

    def test_deterministic(self):
        cfg = CheckConfig(family=renyi(2.0), trials=60, seed=7)
        assert run_suite(cfg).to_json() == run_suite(cfg).to_json()

    def test_different_seeds_differ(self):
        a = run_suite(CheckConfig(family=shannon(), trials=30, seed=1))
        b = run_suite(CheckConfig(family=shannon(), trials=30, seed=2))
        assert a.to_json() != b.to_json()

    def test_violation_detected(self):
        report = run_suite(CheckConfig(family=general_escort(2.0, -1.0, 1.0), trials=30, seed=3))
        assert report.verdict == "violation detected"
        probe = next(c for c in report.checks if c.name == "counterexample_probe")
        assert probe.verdict == "violation detected"
        assert probe.max_residual >= VIOLATION_THRESHOLD

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_phase_diagram(self, alpha, beta):
        """The characterization drawn as data: over the general escorts of exponent beta,
        the axioms hold on the line beta = 1 alone, and fail detectably off it."""
        family = general_escort(alpha, -1.0, beta - alpha)  # its exponent is beta
        report = run_suite(CheckConfig(family, trials=40, seed=7))
        assert report.verdict == ("pass" if beta == 1.0 else "violation detected"), report.to_json()

    def test_large_order_renyi_passes(self):
        # at lambda = -19 the rows' 2**(lam*H) are small beside 1: the
        # conditional means must be taken max-factored to hold the residuals
        report = run_suite(CheckConfig(family=renyi(20.0), trials=200, seed=1))
        assert report.verdict == "pass", report.to_json()

    def test_checks_sorted_by_name(self):
        report = run_suite(CheckConfig(family=shannon(), trials=5, seed=0))
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert set(names) == {
            "chain",
            "counterexample_probe",
            "product_additivity",
            "refinement_consistency",
            "strong_additivity",
            "uniform_trace",
        }

    def test_report_schema(self):
        report = run_suite(CheckConfig(family=tsallis(2.0), trials=5, seed=11))
        payload = json.loads(report.to_json())
        assert set(payload) >= {"family", "params", "seed", "prng", "checks", "verdict"}
        assert payload["family"] == "hct"
        assert payload["params"] == {"alpha": 2.0, "lam": -1.0, "tau": -1.0}
        assert payload["seed"] == 11
        assert payload["prng"] == PRNG_NAME
        for check in payload["checks"]:
            assert set(check) >= {
                "name",
                "max_residual",
                "mean_residual",
                "worst_input",
                "verdict",
            }
            assert check["worst_input"] is not None

    def test_residuals_reported_absolute_and_relative(self):
        report = run_suite(CheckConfig(family=shannon(), trials=5, seed=0))
        for check in report.checks:
            assert check.max_relative_residual <= check.max_residual + 1e-30
            assert check.mean_residual <= check.max_residual

    @pytest.mark.parametrize(
        "family, check",
        [
            (shannon(-1.7e308), "shannon entropy"),
            # finite entropies whose lam-deformed composition overflows
            (hct(2.0, -1e-308, -1e308), "strong_additivity residual"),
        ],
        ids=["entropy", "composition"],
    )
    def test_non_finite_is_typed_overflow(self, family, check):
        with pytest.raises(Overflow, match=f"{check} is not finite"):
            run_suite(CheckConfig(family=family, trials=5))

    @pytest.mark.parametrize("_, family", GRID)
    def test_grid_families_pass_quick_suite(self, _, family):
        report = run_suite(CheckConfig(family=family, trials=40, seed=99))
        assert report.verdict == "pass", report.to_json()

    @pytest.mark.parametrize(
        "sizes",
        [
            {"trials": MAX_SUITE_CELLS // 64 + 1},
            {"trials": 2, "max_rows": 2 ** 12, "max_cols": 2 ** 11 + 1},
            {"trials": 10 ** 12, "max_rows": 10 ** 6, "max_cols": 10 ** 6},
            # 2**24 cells, but each trial is charged the default 8 x 8 footprint
            {"trials": 2 ** 23, "max_rows": 2, "max_cols": 1},
        ],
        ids=["trials", "rows-and-cols", "huge", "small-shape"],
    )
    def test_cell_budget_raises_before_drawing(self, monkeypatch, sizes):
        def refuse(*_):
            raise AssertionError("a trial was drawn")

        for draw in ("_draw_joints", "_draw_distributions", "_draw_counts"):
            monkeypatch.setattr(checker, draw, refuse)
        with pytest.raises(ConfigError, match=str(MAX_SUITE_CELLS)):
            run_suite(CheckConfig(family=shannon(), **sizes))

    @pytest.mark.parametrize("shape, parent_bytes", [((2, 1), 858), ((8, 8), 1074)], ids=str)
    def test_drawn_trials_are_compact(self, shape, parent_bytes):
        """The drawn trials live in CSR stores: at 20 000 trials they hold
        fewer bytes per trial (traced) than the objects per trial did
        (``parent_bytes``, cells included), about 0.17 and 0.43 KB."""
        rows, cols = shape
        cfg = CheckConfig(family=shannon(), trials=20_000, max_rows=rows, max_cols=cols)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stores = checker._draw_suite(cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert [len(store) for store in stores] == [cfg.trials] * 3
        assert held / cfg.trials < parent_bytes

    @pytest.mark.parametrize("shape, chunked_peak", [((2, 1), 218), ((8, 8), 561)], ids=str)
    def test_drawing_whole_stores_peaks_no_higher_than_in_chunks(self, shape, chunked_peak):
        """At 20 000 trials, drawing the three stores whole peaks (traced) at no
        more bytes per trial than drawing them in chunks of 1,024 trials did
        (``chunked_peak``), about 0.21 and 0.43 KB."""
        rows, cols = shape
        cfg = CheckConfig(family=shannon(), trials=20_000, max_rows=rows, max_cols=cols)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stores = checker._draw_suite(cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert [len(store) for store in stores] == [cfg.trials] * 3
        assert peak / cfg.trials <= chunked_peak

    @pytest.mark.parametrize("shape", [(2, 1), (8, 8)], ids=str)
    def test_drawing_takes_one_exact_sum_call_per_normalization_and_refusal_round(
            self, monkeypatch, shape):
        """At 20 000 trials, with no candidate refused, the draws call `segment_sums`
        three times, each over all of its runs: the joints' normalization, their
        rows' refusal round and the product pairs' normalization."""
        runs = []

        def counted(cells, bounds):
            runs.append(len(bounds) - 1)
            return segment_sums(cells, bounds)

        monkeypatch.setattr(checker, "segment_sums", counted)
        rows, cols = shape
        cfg = CheckConfig(family=shannon(), trials=20_000, max_rows=rows, max_cols=cols)
        joints, pairs, _ = checker._draw_suite(cfg)
        assert runs == [cfg.trials, len(joints.bounds) - 1, 2 * cfg.trials]

    def test_cell_budget_admits_its_bound(self):
        # 10**5 trials at the default 8 x 8 fit; so does the bound itself
        assert 10 ** 5 * 64 <= MAX_SUITE_CELLS
        assert (MAX_SUITE_CELLS // 64) * 64 <= MAX_SUITE_CELLS

    def test_joint_sizes_respect_bounds(self):
        report = run_suite(CheckConfig(family=shannon(), trials=20, seed=5, max_rows=3, max_cols=2))
        strong = next(c for c in report.checks if c.name == "strong_additivity")
        rows = strong.worst_input["rows"]
        assert 2 <= len(rows) <= 3
        assert all(1 <= len(r) <= 2 for r in rows)
        total = math.fsum(v for row in rows for v in row)
        assert total == pytest.approx(1.0, abs=1e-9)


def _drawn_inputs(cfg):
    """The suite's random inputs, read one trial at a time from the stores that
    `run_suite` draws."""
    joints, pairs, counts = checker._draw_suite(cfg)
    return joints_of(joints), pairs_of(pairs), counts_of(counts)


def _public_trials(family, cfg):
    """check name -> (residual, |reference value|, worst_input) per trial,
    from the public residual functions, one input at a time."""
    joints, pairs, counts = _drawn_inputs(cfg)
    return {
        "strong_additivity": [
            (
                strong_additivity_residual(family, j),
                abs(joint_entropy(family, j)),
                {"rows": [list(r) for r in j.rows]},
            )
            for j in joints
        ],
        "counterexample_probe": [
            (
                counterexample_probe(family),
                abs(joint_entropy(family, PROBE_JOINT)),
                {"rows": [list(r) for r in PROBE_JOINT.rows]},
            )
        ],
        "product_additivity": [
            (
                product_additivity_residual(family, p, q),
                abs(joint_entropy(family, direct_product(p, q))),
                {"p": list(p.probs), "q": list(q.probs)},
            )
            for p, q in pairs
        ],
        "refinement_consistency": [
            (
                refinement_consistency(family, c),
                abs(entropy(family, marginal(refinement_joint(c)))),
                {"counts": list(c)},
            )
            for c in counts
        ],
        # the fair-coin chain of length n is U_(2**n) bit for bit
        "chain": [
            (chain_residual(family, n), abs(entropy(family, uniform(2 ** n))), {"n": n})
            for n in range(1, 13)
        ],
        "uniform_trace": [
            (uniform_trace_residual(family, n), abs(entropy(family, uniform(n))), {"n": n})
            for n in (2 ** k for k in range(1, 15))
        ],
    }


@pytest.mark.parametrize(
    "family",
    [
        shannon(-1.0),
        renyi(0.5),
        tsallis(2.0),
        nath(1.0, 0.0, -1.5),
        general_escort(2.0, -1.0, 1.0),
        general_escort(3.0, -1.0, 0.0),
    ],
    ids=repr,
)
@pytest.mark.parametrize(
    "sizes",
    [{"trials": 20}, {"trials": 3, "max_rows": 3, "max_cols": 600}],
    ids=["8x8", "3x600"],
)
def test_suite_residuals_equal_the_public_functions(family, sizes):
    """Every reported number is what the public residual functions give on
    the drawn inputs, trial by trial: the maxima, the fsum means and the
    worst input agree exactly."""
    cfg = CheckConfig(family=family, seed=2024, **sizes)
    report = run_suite(cfg)
    trials = _public_trials(family, cfg)
    assert [c.name for c in report.checks] == sorted(trials)
    for record in report.checks:
        results = trials[record.name]
        residuals = [r for r, _, _ in results]
        relatives = [r / (1.0 + s) for r, s, _ in results]
        worst = max(range(len(results)), key=relatives.__getitem__)  # first maximum
        assert record.max_residual == max(residuals), record.name
        assert record.mean_residual == math.fsum(residuals) / len(residuals), record.name
        assert record.max_relative_residual == relatives[worst], record.name
        assert record.mean_relative_residual == math.fsum(relatives) / len(relatives), record.name
        assert record.worst_input == results[worst][2], record.name


# The batched checks against their one-input case, input by input.
BATCH_FAMILIES = [
    shannon(-1.0),
    renyi(3.0),
    havrda_charvat(0.5),
    nath(1.0, 0.0, -1.5),
    general_escort(0.5, -1.0, 0.0),
    general_escort(2.0, -1.0, -0.5),
]


def _wide_rows_joint(rng):
    """A joint with rows on both sides of 256 cells, one of them all zero."""
    cells = [rng.exponential(1.0, m) for m in (3, 300, 1, 257, 255)]
    cells.insert(2, np.zeros(4))
    total = sum(c.sum() for c in cells)
    return make_joint([(c / total).tolist() for c in cells])


@pytest.mark.parametrize("family", BATCH_FAMILIES, ids=repr)
def test_batched_checks_equal_the_public_functions(family):
    rng = np.random.default_rng(77)
    joints = [random_joint(rng, 6, 9) for _ in range(12)]
    joints += [PROBE_JOINT, _wide_rows_joint(rng)]
    pairs = [random_pair(rng, 5, 400) for _ in range(6)]
    counts = [random_counts(rng, 5, 300) for _ in range(6)] + [(1,), (2, 1)]
    cases = [  # the check, its store of the inputs, the inputs and their public function
        (checker._strong_additivity, store_of_joints(joints), joints,
         lambda j: strong_additivity_residual(family, j)),
        (checker._product, store_of_pairs(pairs), pairs,
         lambda pq: product_additivity_residual(family, *pq)),
        (checker._refinement, store_of_counts(counts), counts,
         lambda c: refinement_consistency(family, c)),
        (checker._chain, [1, 9, 2, 12], [1, 9, 2, 12], lambda n: chain_residual(family, n)),
        (checker._trace, [1, 3, 256, 2, 1000], [1, 3, 256, 2, 1000],
         lambda n: uniform_trace_residual(family, n)),
    ]
    for check, store, inputs, public in cases:
        residuals, scales = checker._evaluate(family, [check(family, store)])[0]
        assert residuals.tolist() == [public(x) for x in inputs], check.__name__
        one = [checker._evaluate(family, [check(family, store[t:t + 1])])[0]
               for t in range(len(inputs))]
        assert scales.tolist() == [their[0] for _, their in one], check.__name__


@pytest.mark.parametrize("batch_trials", [2, checker._BATCH_TRIALS])
def test_failed_batch_raises_what_a_trial_by_trial_run_meets_first(monkeypatch, batch_trials):
    monkeypatch.setattr(checker, "_BATCH_TRIALS", batch_trials)

    # input 1 has a non-finite residual; input 2 makes its batch fail
    def check(family, inputs):
        if 2 in inputs:
            raise DomainError("input 2")
        yield [], None, [2]
        return [math.inf if x == 1 else 0.0 for x in inputs], [0.0] * len(inputs)

    with pytest.raises(Overflow, match="demo residual is not finite"):
        checker._measure(shannon(), [("demo", check, [0, 1, 2, 3], None)])
    with pytest.raises(DomainError, match="input 2"):
        checker._measure(shannon(), [("demo", check, [0, 2, 1, 3], None)])
    zeros = [0.0] * 3
    measured = checker._measure(shannon(), [("demo", check, [0, 3, 0], None)])
    assert [(r.tolist(), s.tolist()) for r, s in measured] == [(zeros, zeros)]


def test_batch_error_is_raised_when_no_trial_fails_alone(monkeypatch):
    monkeypatch.setattr(checker, "_BATCH_TRIALS", 4)

    def check(family, inputs):
        if len(inputs) >= 2:
            raise DomainError(f"batch of {len(inputs)}")
        yield [], None, [2]
        return [0.0], [0.0]

    with pytest.raises(DomainError, match="^batch of 3$"):
        checker._measure(shannon(), [("demo", check, [0, 1, 2], None)])
    measured = checker._measure(shannon(), [("demo", check, [0], None)])
    assert [(r.tolist(), s.tolist()) for r, s in measured] == [([0.0], [0.0])]


def test_reports_do_not_depend_on_the_batch_size(monkeypatch):
    cfg = CheckConfig(family=general_escort(2.0, -1.0, 1.0), trials=23, seed=5)
    whole = run_suite(cfg).to_json()
    monkeypatch.setattr(checker, "_BATCH_TRIALS", 4)
    assert run_suite(cfg).to_json() == whole


def _drawn(draw, rng, *args):
    """The store that ``draw(rng, *args)`` draws, as bytes and lists, and the
    stream's next draw after it."""
    drawn = draw(rng, *args)
    if isinstance(drawn, checker._Trials):
        drawn = drawn.flat, np.diff(drawn.bounds), np.diff(drawn.offsets)
    flat, sizes, trial_rows = drawn
    return flat.dtype.str, flat.tobytes(), list(sizes), list(trial_rows), rng.integers(2 ** 62)


# Store shapes (max_rows, max_cols): the least, the default, long and tall rows,
# and a high of 1 for the pairs' q.
SHAPES = [(2, 1), (8, 8), (3, 40), (40, 3), (5, 1)]


# The suite's draws in its order, each with its reference.
DRAWS = [
    (checker._draw_joints, reference_joints),
    (checker._draw_distributions, reference_distributions),
    (checker._draw_counts, reference_counts),
]


@pytest.mark.parametrize("draw, reference", DRAWS, ids=["joints", "distributions", "counts"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 30))
def test_drawn_stores_are_the_documented_calls(draw, reference, shape, seed, trials):
    """Each store is the Generator calls that its docstring states, each trial
    over its exact sum, and it leaves the stream where those calls do."""
    drawn = _drawn(draw, np.random.default_rng(seed), trials, *shape)
    assert drawn == _drawn(reference, np.random.default_rng(seed), trials, *shape)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_the_suite_draws_its_stores_in_order_on_one_stream(shape):
    """Joints, then product pairs, then refinement counts, from the seed's generator."""
    cfg = CheckConfig(shannon(), trials=7, max_rows=shape[0], max_cols=shape[1], seed=11)
    rng = np.random.default_rng(cfg.seed)
    for store, (draw, _) in zip(checker._draw_suite(cfg), DRAWS):
        expected = draw(rng, cfg.trials, *shape)
        assert store.flat.tobytes() == expected.flat.tobytes(), draw.__name__
        assert store.bounds.tolist() == expected.bounds.tolist(), draw.__name__
        assert store.offsets.tolist() == expected.offsets.tolist(), draw.__name__


class _SmallRows:
    """A PCG64 generator whose every other exponential draw has every other
    cell scaled by 1e-20: a joint with a row of one such cell is refused, and
    as many joints are drawn again."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def exponential(self, *args, **kwargs):
        cells = self._rng.exponential(*args, **kwargs)
        self._calls += 1
        if self._calls % 2:
            cells[::2] *= 1e-20
        return cells


@pytest.mark.parametrize("make_rng", [np.random.default_rng, _SmallRows], ids=["pcg64", "redraws"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_drawn_joints_are_the_reference_rejection_loop(make_rng, shape):
    """`_draw_joints` keeps the candidates that the loop of `reference_joints`
    keeps, byte for byte, and leaves the stream where it does; every row of a
    kept joint sums to 1e-12 or more, and the joint to 1."""
    drawn, reference = make_rng(5), make_rng(5)
    store = checker._draw_joints(drawn, 25, *shape)
    expected = reference_joints(reference, 25, *shape)
    assert store.flat.tobytes() == expected[0].tobytes()
    assert np.diff(store.bounds).tolist() == expected[1].tolist()
    assert np.diff(store.offsets).tolist() == expected[2]
    assert drawn.integers(2 ** 62) == reference.integers(2 ** 62)
    if make_rng is _SmallRows:  # some candidates were refused, and redrawn once
        assert drawn._calls == 2
    for joint in joints_of(store):
        rows = checker.segment_sums(joint._flat, joint._bounds)
        assert min(rows) >= 1e-12 and math.fsum(rows) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_drawn_joints_keep_the_exact_sums_of_the_rows_kept(shape):
    """After a refused round, the store's row sums are `segment_sums` of the rows that it
    kept, and so are a slice's of its rows."""
    rng = _SmallRows(5)
    store = checker._draw_joints(rng, 25, *shape)
    assert rng._calls == 2
    for t in (store, store[3:11]):
        assert t.sums.tobytes() == segment_sums(t.flat, t.bounds).tobytes()


@pytest.mark.parametrize(
    "draw", [draw for draw, _ in DRAWS], ids=["joints", "distributions", "counts"]
)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_numpy_integer_counts_and_shapes_draw_what_python_ints_draw(draw, shape):
    """A ``CheckConfig`` stores ints, but a store drawn from numpy integers is
    the store drawn from the same Python ints, and so is the stream after it."""
    n, (rows, cols) = np.int64(5), np.array(shape, dtype=np.int64)
    numpy_args = _drawn(draw, np.random.default_rng(3), n, rows, cols)
    assert numpy_args == _drawn(draw, np.random.default_rng(3), 5, *shape)


@pytest.mark.parametrize("runs", [1, 1023, 1024, 1025, 3 * 1024 + 1])
def test_normalized_divides_each_run_in_place_by_its_exact_sum(runs):
    """`checker._normalized` divides each run by its `segment_sums` sum, in place."""
    rng = np.random.default_rng(runs)
    bounds = checker.bounds_of(rng.integers(1, 9, size=runs))
    n = int(bounds[-1])
    cells = rng.exponential(1.0, size=n) * np.exp2(rng.integers(-60, 60, size=n))
    expected = cells / np.repeat(checker.segment_sums(cells, bounds), np.diff(bounds))
    normalized = checker._normalized(cells, bounds)
    assert normalized is cells and normalized.tobytes() == expected.tobytes()


# `run_suite` measures every check at once (one `_measure` call) and, when
# that raises, again one check per `_measure` call.
_MEASURE = checker._measure


def _one_pass(family, checks):
    """`checker._measure` of every check at once; a one-check call is refused."""
    return _MEASURE(family, checks) if len(checks) > 1 else _refuse()


def _check_by_check(family, checks):
    """`checker._measure` of one check; a call with every check is refused."""
    return _MEASURE(family, checks) if len(checks) == 1 else _refuse()


@pytest.mark.parametrize("batch_trials", [checker._BATCH_TRIALS, 4])
@pytest.mark.parametrize("_, family", GRID + [(repr(f), f) for f in FORCING])
def test_one_pass_equals_the_check_by_check_run(monkeypatch, _, family, batch_trials):
    monkeypatch.setattr(checker, "_BATCH_TRIALS", batch_trials)
    cfg = CheckConfig(family=family, trials=23, seed=3)
    with monkeypatch.context() as m:
        m.setattr(checker, "_measure", _one_pass)  # the one pass must not fall back
        fused = run_suite(cfg).to_json()
    monkeypatch.setattr(checker, "_measure", _check_by_check)
    assert run_suite(cfg).to_json() == fused


def test_one_pass_raises_what_the_check_by_check_run_raises(monkeypatch):
    cfg = CheckConfig(family=tsallis(20.0), trials=200, seed=1)
    with pytest.raises(SingularElement) as fused:
        run_suite(cfg)
    monkeypatch.setattr(checker, "_measure", _check_by_check)
    with pytest.raises(SingularElement) as alone:
        run_suite(cfg)
    assert str(fused.value) == str(alone.value)


@pytest.mark.parametrize("family, rows, message", [
    (general_escort(-1.0, -1.0, 3.0), [[0.5, 0.5], [0.0, 0.0]],
     "zero probability with non-positive exponent alpha=-1.0"),
    (general_escort(-1.0, -1.0, 3.0), [[0.5, 0.5], []],
     "zero probability with non-positive exponent alpha=-1.0"),
    (renyi(2.0), [[0.0, 0.0], [0.0]],
     "nath entropy is undefined: every run needs a positive entry"),
], ids=["zero row, alpha -1", "empty row, alpha -1", "zero joint, renyi(2)"])
def test_a_row_of_zero_mass_raises_the_error_of_the_runs_before_the_conditional_rows(
        family, rows, message):
    """The escort of a marginal with a zero entry is undefined at alpha <= 0 (and of
    one with no positive entry at any alpha), but the wholes and marginals come first:
    their entropies' error is raised, as their own call raises it."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        strong_additivity_residual(family, checker.JointDistribution(rows))


def test_a_suite_under_a_non_positive_alpha_raises_the_probes_entropy_error():
    """The probe joint holds a zero, whose entropy is undefined at alpha <= 0."""
    message = "zero probability with non-positive exponent alpha=-1.0"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_suite(CheckConfig(family=general_escort(-1.0, -1.0, 3.0), trials=10, seed=1))


def test_an_earlier_check_failing_in_a_later_batch_is_raised(monkeypatch):
    """The product fails in batch 1 and strong additivity, listed first, in
    batch 2: the error is strong additivity's, as a check-by-check run meets it."""
    monkeypatch.setattr(checker, "_BATCH_TRIALS", 4)

    def failing(check, size):
        def steps(family, inputs):
            if len(inputs) == size:
                raise DomainError(f"{check.__name__} of {size}")
            return (yield from check(family, inputs))

        return steps

    monkeypatch.setattr(checker, "_strong_additivity", failing(checker._strong_additivity, 3))
    monkeypatch.setattr(checker, "_product", failing(checker._product, 4))
    with pytest.raises(DomainError, match="^_strong_additivity of 3$"):
        run_suite(CheckConfig(family=renyi(2.0), trials=7, seed=1))


def test_a_suite_batch_makes_one_drawn_and_conditional_call_then_one_uniform_call(monkeypatch):
    """A 100-trial suite is one batch: one `span_entropies` call for the drawn runs and the
    joints' wholes, marginals and conditional rows, and then one for the uniforms U_2 ...
    U_2**14 that the chain and the trace share."""
    calls = []

    def counted(fn):
        def call(*args):
            calls.append((fn.__name__, args))
            return fn(*args)

        return call

    span_entropies = counted(entropies.span_entropies)
    monkeypatch.setattr(entropies, "span_entropies", span_entropies)
    monkeypatch.setattr(checker, "span_entropies", span_entropies)
    cfg = CheckConfig(family=renyi(2.0), trials=100, seed=1)
    run_suite(cfg)
    assert [name for name, _ in calls] == ["span_entropies", "span_entropies"]
    joints, _, counts = checker._draw_suite(cfg)
    wholes = cfg.trials + 1 + cfg.trials  # the joints', the probe's and the refinements'
    rows = len(joints.bounds) - 1 + len(PROBE_JOINT) + len(counts.flat)
    _, (_, _, bounds) = calls[0]  # the products, p and q, the wholes, marginals and rows
    assert len(bounds) - 1 == 3 * cfg.trials + 2 * wholes + rows
    dims = [2 ** k for k in range(1, 15)]
    _, (_, cells, bounds) = calls[-1]
    assert np.asarray(bounds).tolist() == bounds_of(dims).tolist()
    assert cells.tolist() == np.repeat(1.0 / np.array(dims), dims).tolist()


# The public residual functions are the one-check case of `checker._evaluate`: each makes
# one `span_entropies` call, on the uniforms alone or on the drawn runs and rows alone.
ONE_CALL_RESIDUALS = {
    "chain": (lambda f: chain_residual(f, 12), [2 ** 12, 2]),
    "uniform_trace": (lambda f: uniform_trace_residual(f, 2 ** 14), [2 ** 14]),
    "strong_additivity": (  # the whole, the marginal, then the two conditional rows
        lambda f: strong_additivity_residual(f, make_joint([[0.25, 0.25], [0.375, 0.125]])),
        [4, 2, 2, 2]),
    "product_additivity": (  # the product, then p and q
        lambda f: product_additivity_residual(f, uniform(3), make_distribution([0.25, 0.75])),
        [6, 3, 2]),
}


@pytest.mark.parametrize("name", list(ONE_CALL_RESIDUALS))
def test_a_residual_function_makes_one_entropy_call(monkeypatch, name):
    residual, lengths = ONE_CALL_RESIDUALS[name]
    calls = []

    def span_entropies(family, cells, bounds):
        calls.append(np.asarray(bounds).tolist())
        return entropies.span_entropies(family, cells, bounds)

    monkeypatch.setattr(checker, "span_entropies", span_entropies)
    residual(renyi(2.0))
    assert calls == [bounds_of(lengths).tolist()]


# `checker._evaluate` takes a batch's drawn runs and its uniforms in two `span_entropies`
# calls, which moves no bit: one call on both, whose runs cross a block of the exact sum,
# gives every run the bits that the two calls give it, for each member of the suite.
@pytest.mark.parametrize("_, family", GRID + [(repr(f), f) for f in FORCING])
def test_drawn_runs_and_uniforms_in_one_call_equal_two_calls(_, family):
    rng = np.random.default_rng(41)
    lengths = rng.integers(1, 9, size=1000)
    bounds = bounds_of(lengths)
    drawn = rng.exponential(1.0, int(bounds[-1]))
    drawn /= np.repeat(np.add.reduceat(drawn, bounds[:-1]), lengths)
    dims = [2 ** k for k in range(1, 15)]
    uniforms = np.repeat(1.0 / np.array(dims), dims)
    assert len(drawn) < _BLOCK < len(drawn) + len(uniforms)
    span_entropies = entropies.span_entropies
    merged = span_entropies(family, np.concatenate([drawn, uniforms]), bounds_of([*lengths, *dims]))
    apart = [*span_entropies(family, drawn, bounds).tolist(),
             *span_entropies(family, uniforms, bounds_of(dims)).tolist()]
    assert [v.hex() for v in merged.tolist()] == [v.hex() for v in apart]


# The joints' conditional rows follow the drawn runs in that first call, which moves no
# bit either, here on rows that `conditional_rows` makes and that cross a block's edge.
@pytest.mark.parametrize("_, family", GRID + [(repr(f), f) for f in FORCING])
def test_drawn_runs_and_conditional_rows_in_one_call_equal_two_calls(_, family):
    rng = np.random.default_rng(43)
    lengths = rng.integers(1, 9, size=1000)
    bounds = bounds_of(lengths)
    drawn = rng.exponential(1.0, int(bounds[-1]))
    drawn /= np.repeat(np.add.reduceat(drawn, bounds[:-1]), lengths)
    store = checker._draw_joints(rng, 2000, 8, 8)
    joint = checker.JointDistribution._wrap(store.flat, store.bounds)
    margs = checker.group_marginals(joint, store.offsets)
    rows, row_bounds, _, _ = entropies.conditional_rows(family, joint, store.offsets, margs)
    assert len(drawn) < _BLOCK < len(drawn) + len(rows)
    span_entropies = entropies.span_entropies
    merged = span_entropies(family, np.concatenate([drawn, rows]),
                            bounds_of([*lengths, *np.diff(row_bounds)]))
    apart = [*span_entropies(family, drawn, bounds).tolist(),
             *span_entropies(family, rows, row_bounds).tolist()]
    assert [v.hex() for v in merged.tolist()] == [v.hex() for v in apart]


@st.composite
def _refinement_counts(draw):
    """Block sizes m_i whose sum m is at most 2**22 and not a power of two, so 1/m is inexact."""
    m = draw(st.integers(3, 2 ** 22).filter(lambda m: m & (m - 1)))
    cuts = sorted(draw(st.lists(st.integers(1, m - 1), max_size=6, unique=True)))
    return [j - i for i, j in itertools.pairwise([0, *cuts, m])]


@settings(max_examples=20, deadline=None)
@given(counts=_refinement_counts())
def test_refinement_row_sums_are_the_math_fsum_of_each_row(counts):
    """The refinement's row i holds m_i cells of 1/m, and its exact sum is taken as
    m_i * (1/m): one multiply of an exact integer, as correctly rounded as ``math.fsum``."""
    _, (joint, _), _ = next(checker._refinement(shannon(), store_of_counts([counts])))
    rows = itertools.pairwise(joint._bounds.tolist())
    assert [s.hex() for s in joint._sums.tolist()] == [
        math.fsum(joint._flat[i:j].tolist()).hex() for i, j in rows]


def test_a_100_trial_suite_takes_8_exact_sums(monkeypatch):
    """Each joint's rows are summed once: a 100-trial renyi(2) suite makes 8 exact-sum
    calls, the draws' three (the joints' normalization and refusal round, the pairs'
    normalization), the marginals' totals, the runs' entropies, the escort weights, the
    exponential means and the uniforms' entropies."""
    calls = []
    blocked = _stable._blocked_fsum

    def counted(blocks, bounds):
        calls.append(len(bounds) - 1)
        return blocked(blocks, bounds)

    monkeypatch.setattr(_stable, "_blocked_fsum", counted)
    run_suite(CheckConfig(family=renyi(2.0), trials=100, seed=1))
    assert len(calls) == 8
