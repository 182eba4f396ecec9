import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import constrained_grid
from trial_views import (
    random_counts,
    random_distribution,
    random_distributions,
    random_joint,
    random_joints,
    reference_joints,
)
from gentropies import (
    PROBE_JOINT,
    CheckConfig,
    ConfigError,
    Deformation,
    DimensionError,
    DomainError,
    Overflow,
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
from gentropies import _sampler, checker
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


class TestUniformTraceResidual:
    def test_shannon_1024(self):
        assert uniform_trace_residual(shannon(-1.0), 1024) < 1e-12

    def test_havrda_charvat_normalization(self):
        assert uniform_trace_residual(havrda_charvat(2.0), 2) < 1e-12

    def test_tsallis_half_sixteen(self):
        assert uniform_trace_residual(tsallis(0.5), 16) < 1e-12


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

    @pytest.mark.parametrize("sampler", ["c", "methods"])
    @pytest.mark.parametrize(
        "field, value", [("trials", 10.0), ("max_rows", 8.5), ("max_cols", "8"), ("seed", 1.5)]
    )
    def test_integer_fields_refuse_other_numbers(self, monkeypatch, sampler, field, value):
        """The same refusal whether or not the C samplers draw."""
        if sampler == "methods":
            monkeypatch.setattr(_sampler, "c_samplers", lambda: None)
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            run_suite(CheckConfig(renyi(2.0), **{"trials": 5, field: value}))

    @pytest.mark.parametrize("sampler", ["c", "methods"])
    def test_numpy_integers_are_stored_as_ints(self, monkeypatch, sampler):
        if sampler == "methods":
            monkeypatch.setattr(_sampler, "c_samplers", lambda: None)
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
        (``parent_bytes``, cells included), about 0.18 and 0.4 KB."""
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
    """The suite's random inputs, drawn in `run_suite`'s order."""
    rng = np.random.default_rng(cfg.seed)
    joints = [random_joint(rng, cfg.max_rows, cfg.max_cols) for _ in range(cfg.trials)]
    pairs = [
        (
            random_distribution(rng, cfg.max_rows),
            random_distribution(rng, cfg.max_cols),
        )
        for _ in range(cfg.trials)
    ]
    counts = [random_counts(rng, cfg.max_rows, cfg.max_cols) for _ in range(cfg.trials)]
    return joints, pairs, counts


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
    pairs = [
        (random_distribution(rng, 5), random_distribution(rng, 400))
        for _ in range(6)
    ]
    counts = [random_counts(rng, 5, 300) for _ in range(6)] + [(1,), (2, 1)]
    cases = [
        (checker._strong_additivity, joints, lambda j: strong_additivity_residual(family, j)),
        (checker._product, pairs, lambda pq: product_additivity_residual(family, *pq)),
        (checker._refinement, counts, lambda c: refinement_consistency(family, c)),
        (checker._chain, [1, 9, 2, 12], lambda n: chain_residual(family, n)),
        (checker._trace, [1, 3, 256, 2, 1000], lambda n: uniform_trace_residual(family, n)),
    ]
    for check, inputs, public in cases:
        residuals, scales = check(family, inputs)
        assert residuals == [public(x) for x in inputs], check.__name__
        assert scales == [check(family, [x])[1][0] for x in inputs], check.__name__


@pytest.mark.parametrize("batch_trials", [2, checker._BATCH_TRIALS])
def test_failed_batch_raises_what_a_trial_by_trial_run_meets_first(monkeypatch, batch_trials):
    monkeypatch.setattr(checker, "_BATCH_TRIALS", batch_trials)

    # input 1 has a non-finite residual; input 2 makes its batch fail
    def check(family, inputs):
        if 2 in inputs:
            raise DomainError("input 2")
        return [math.inf if x == 1 else 0.0 for x in inputs], [0.0] * len(inputs)

    with pytest.raises(Overflow, match="demo residual is not finite"):
        checker._measure("demo", check, shannon(), [0, 1, 2, 3])
    with pytest.raises(DomainError, match="input 2"):
        checker._measure("demo", check, shannon(), [0, 2, 1, 3])
    assert checker._measure("demo", check, shannon(), [0, 3, 0]) == ([0.0] * 3, [0.0] * 3)


def test_batch_error_is_raised_when_no_trial_fails_alone(monkeypatch):
    monkeypatch.setattr(checker, "_BATCH_TRIALS", 4)

    def check(family, inputs):
        if len(inputs) >= 2:
            raise DomainError(f"batch of {len(inputs)}")
        return [0.0], [0.0]

    with pytest.raises(DomainError, match="^batch of 3$"):
        checker._measure("demo", check, shannon(), [0, 1, 2])
    assert checker._measure("demo", check, shannon(), [0]) == ([0.0], [0.0])


def test_reports_do_not_depend_on_the_batch_size(monkeypatch):
    cfg = CheckConfig(family=general_escort(2.0, -1.0, 1.0), trials=23, seed=5)
    whole = run_suite(cfg).to_json()
    monkeypatch.setattr(checker, "_BATCH_TRIALS", 4)
    assert run_suite(cfg).to_json() == whole


class _SmallRows:
    """A PCG64 generator whose every other exponential draw keeps only its
    last cell: then every row but the last sums below 1e-12, and the joint
    is redrawn."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def exponential(self, *args, **kwargs):
        cells = self._rng.exponential(*args, **kwargs)
        self._calls += 1
        if self._calls % 2:
            cells[:-1] *= 1e-20
        return cells


@pytest.mark.parametrize("defer", [False, True], ids=["row-sum-bound", "exact-test"])
@pytest.mark.parametrize("make_rng", [np.random.default_rng, _SmallRows], ids=["pcg64", "redraws"])
@pytest.mark.parametrize("shape", [(8, 8), (3, 40), (2, 1)], ids=str)
def test_batched_draws_equal_one_trial_draws(monkeypatch, defer, make_rng, shape):
    """N batched draws are N one-trial draws byte for byte, on the same
    stream; with ``defer`` the row-sum bound clears nothing, so every joint
    takes the exact redraw test."""
    if defer:
        monkeypatch.setattr(checker, "_rows_clear", lambda row_sums, total: False)
    max_rows, max_cols = shape
    batched, alone = make_rng(5), make_rng(5)
    joints = random_joints(batched, 25, max_rows, max_cols)
    if make_rng is _SmallRows:  # every joint was drawn twice
        assert batched._calls == 50
    dists = random_distributions(batched, [max_rows, max_cols] * 25)
    for joint in joints:
        one = random_joint(alone, max_rows, max_cols)
        assert joint._flat.tobytes() == one._flat.tobytes()
        assert list(joint._bounds) == list(one._bounds)
        rows = checker.segment_sums(joint._flat, joint._bounds)
        assert min(rows) >= 1e-12 and math.fsum(rows) == pytest.approx(1.0, abs=1e-15)
    for dist, max_dim in zip(dists, [max_rows, max_cols] * 25):
        one = random_distribution(alone, max_dim)
        assert dist._array.tobytes() == one._array.tobytes()
    assert batched.integers(2 ** 62) == alone.integers(2 ** 62)


@pytest.mark.parametrize("defer", [False, True], ids=["row-sum-bound", "exact-test"])
@pytest.mark.parametrize("make_rng", [np.random.default_rng, _SmallRows], ids=["pcg64", "redraws"])
@pytest.mark.parametrize("shape", [(8, 8), (3, 40), (2, 1)], ids=str)
def test_drawn_joints_are_the_reference_rejection_loop(monkeypatch, defer, make_rng, shape):
    """`_draw_joints` keeps the candidates that the one-at-a-time loop of
    `reference_joints` keeps, byte for byte, and leaves the stream where it does."""
    if defer:
        monkeypatch.setattr(checker, "_rows_clear", lambda row_sums, total: False)
    drawn, reference = make_rng(5), make_rng(5)
    flat, sizes, trial_rows = checker._draw_joints(drawn, 25, *shape)
    expected = reference_joints(reference, 25, *shape)
    assert flat.tobytes() == expected[0].tobytes()
    assert list(sizes) == list(expected[1]) and list(trial_rows) == expected[2]
    assert drawn.integers(2 ** 62) == reference.integers(2 ** 62)


def test_reports_do_not_depend_on_the_row_sum_bound(monkeypatch):
    cfg = CheckConfig(family=renyi(2.0), trials=50, seed=9)
    bound = run_suite(cfg).to_json()
    monkeypatch.setattr(checker, "_rows_clear", lambda row_sums, total: False)
    assert run_suite(cfg).to_json() == bound
