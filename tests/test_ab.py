"""``tools/ab.py``: the verdict of `summary` and the clocks of `sample` on fixed numbers,
the workloads that a CASE selects and the inputs of some cases, with no timing run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

LOW = [8.0, 8.5, 9.0, 9.5, 10.0]  # quartiles 8.25, 9.0, 9.75: an IQR of 1.5
HIGH = [10.0, 10.5, 11.0, 11.5, 12.0]  # quartiles 10.25, 11.0, 11.75


@pytest.mark.parametrize("old, new, won, verdict", [
    (HIGH, LOW, 1.0, "faster"),  # every round won, medians 2.0 apart
    (LOW, HIGH, 0.0, "slower"),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4, 0.5], 1.0, "same"),  # 2.7 apart, IQR 3.0
    (HIGH * 2, LOW[:4] + [13.0] + LOW, 0.9, "faster"),  # 90 % of the rounds
    (HIGH * 2, LOW[:3] + [13.0, 13.0] + LOW, 0.8, "same"),  # 80 %
])
def test_summary_verdicts(old, new, won, verdict):
    o, n, got_won, got = ab.summary({"old": old, "new": new})
    assert (got_won, got) == (pytest.approx(won), verdict)
    assert all(q1 <= m <= q3 for m, q1, q3 in (o, n))


def test_summary_medians_and_quartiles():
    o, n, _, _ = ab.summary({"old": HIGH, "new": LOW})
    assert o == (11.0, 10.25, 11.75)
    assert n == (9.0, 8.25, 9.75)


def test_sample_reads_both_clocks_per_call():
    calls = []
    cpu = iter([1.0, 4.0]).__next__  # 3 CPU seconds over the timed calls
    wall, used = ab.sample(lambda: calls.append(None), 3, cpu=cpu)
    assert len(calls) == 3 and used == 1.0 and wall >= 0.0


def test_children_cpu_counts_the_waited_for_children():
    before = ab.children_cpu()
    ab.bare_child()
    assert ab.children_cpu() > before


def test_workload_sums_add_each_sides_medians_per_workload():
    medians = {"bulk entropy a": (1.0, 0.5), "suite renyi(2)": (2.0, 1.5),
               "cli check tsallis(2) 100": (9.0, 9.0), "bulk entropy b": (0.25, 0.25),
               "run_suite renyi(2) 100": (7.0, 7.0)}
    assert ab.workload_sums(medians) == {"bulk": (1.25, 0.75, 2), "suite": (2.0, 1.5, 1)}


def test_product_cases_time_the_public_residual_on_two_shapes(tmp_path):
    import gentropies as g
    cases = ab.cases(g, tmp_path)
    names = [name for name in cases if name.startswith("product_additivity_residual")]
    assert names == [f"product_additivity_residual {family} {shape}"
                     for family in ("shannon", "renyi(2)", "tsallis(2)") for shape in ("8x8", "64x48")]
    for name in names:
        call = cases[name]()
        family, p, q = call.args
        assert f"{len(p)}x{len(q)}" == name.rsplit(" ", 1)[1]
        assert call.func is g.product_additivity_residual
        assert call() == g.product_additivity_residual(family, p, q)


@pytest.mark.parametrize("selected, workloads", [
    ([], ["bulk", "suite"]),
    (["suite"], ["suite"]),
    (["suite run_suite renyi(2)"], ["suite"]),
    (["bulk make_distribution", "suite"], ["bulk", "suite"]),
    (["run_suite renyi(2)"], []),  # "suite" inside another case's name
    (["bulky", "suites"], []),
])
def test_a_case_selects_a_workload_by_its_name_and_a_space(selected, workloads):
    assert ab.workloads_of(selected) == workloads


def test_escort_cases_time_the_public_escort_on_2_20_entries(tmp_path):
    import gentropies as g
    cases = ab.cases(g, tmp_path)
    zeros = {"escort(2) 2^20": 0, "escort(2) 2^20 10% zeros": 0.1}
    assert [name for name in cases if name.startswith("escort")] == list(zeros)
    for name, share in zeros.items():
        call = cases[name]()
        p, alpha = call.args
        assert call.func is g.escort and alpha == 2.0 and len(p) == 2 ** 20
        assert np.count_nonzero(p._array == 0.0) / len(p) == pytest.approx(share, abs=0.01)
        assert call()._array.tobytes() == g.escort(p, alpha)._array.tobytes()
