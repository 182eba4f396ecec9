"""``tools/report_drift.py``'s comparison of two sets of suite reports."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("report_drift", ROOT / "tools" / "report_drift.py")
report_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_drift)


def _report(prng: str, residual: float, verdict: str) -> str:
    check = {"name": "strong_additivity", "max_residual": residual, "mean_residual": residual,
             "worst_input": {"rows": [[0.5], [0.5]]}, "verdict": verdict}
    return json.dumps({"family": "renyi", "prng": prng, "checks": [check], "verdict": verdict})


def test_a_new_prng_is_named_and_its_deltas_compare_different_inputs():
    old = {"a": _report("numpy.random.PCG64", 1e-16, "pass"), "b": _report("x", 0.0, "pass")}
    new = {"a": _report("draw order 2", 3e-16, "pass"), "b": _report("x", 0.0, "pass")}
    lines, changed = report_drift.compare(old, new)
    assert not changed
    assert lines[:3] == ["reports: 2 old, 2 new, 1 differ",
                         "prng: 'numpy.random.PCG64' old, 'draw order 2' new", "  a"]
    assert "largest |delta| per residual field, between reports on different inputs:" in lines
    assert "  max_residual: 2e-16 (a / strong_additivity)" in lines


def test_a_verdict_change_sets_the_status_whatever_the_prng():
    old = {"a": _report("numpy.random.PCG64", 1e-16, "pass")}
    new = {"a": _report("numpy.random.PCG64", 1e-3, "violation detected")}
    lines, changed = report_drift.compare(old, new)
    assert changed
    assert not any(line.startswith("prng:") for line in lines)
    assert "  a: report pass -> violation detected" in lines
    assert "  a / strong_additivity: pass -> violation detected" in lines
    assert "largest |delta| per residual field:" in lines
