import json
import math

import pytest

from conftest import constrained_grid
from gentropies import (
    PROBE_JOINT,
    CheckConfig,
    ConfigError,
    Deformation,
    DimensionError,
    Overflow,
    chain_residual,
    counterexample_probe,
    entropy,
    general_escort,
    havrda_charvat,
    hct,
    make_distribution,
    product_additivity_residual,
    refinement_consistency,
    renyi,
    run_suite,
    shannon,
    strong_additivity_residual,
    tsallis,
    uniform,
    uniform_trace_residual,
)
from gentropies import checker
from gentropies.checker import MAX_CHAIN_LENGTH, PRNG_NAME, VIOLATION_THRESHOLD

GRID = constrained_grid()


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

        monkeypatch.setattr(checker, "_chain_flat", refuse)
        with pytest.raises(DimensionError, match=str(MAX_CHAIN_LENGTH)):
            chain_residual(shannon(-1.0), n)


class TestUniformTraceResidual:
    def test_shannon_1024(self):
        assert uniform_trace_residual(shannon(-1.0), 1024) < 1e-12

    def test_havrda_charvat_normalization(self):
        assert uniform_trace_residual(havrda_charvat(2.0), 2) < 1e-12

    def test_tsallis_half_sixteen(self):
        assert uniform_trace_residual(tsallis(0.5), 16) < 1e-12


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

    def test_joint_sizes_respect_bounds(self):
        report = run_suite(CheckConfig(family=shannon(), trials=20, seed=5, max_rows=3, max_cols=2))
        strong = next(c for c in report.checks if c.name == "strong_additivity")
        rows = strong.worst_input["rows"]
        assert 2 <= len(rows) <= 3
        assert all(1 <= len(r) <= 2 for r in rows)
        total = math.fsum(v for row in rows for v in row)
        assert total == pytest.approx(1.0, abs=1e-9)
