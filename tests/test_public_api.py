"""The public names and the signatures of the deformation and generator API.

A refactor of the package must leave both as they are; these snapshots make
any change to them a deliberate edit here.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gentropies
from gentropies import Deformation, ExponentialGenerator, LinearGenerator, quasi_mean

PUBLIC_NAMES = [
    "CheckConfig", "CheckRecord", "CheckReport", "ConfigError", "Deformation",
    "DimensionError", "Distribution", "DomainError", "EntropyFamily", "EscortUndefined",
    "ExponentialGenerator", "FormatError", "GeneralEscort", "Generator", "GentropiesError",
    "HCT", "JointDistribution", "LinearGenerator", "Nath", "NegativeMass", "NotNormalized",
    "Overflow", "PROBE_JOINT", "ParameterError", "Shannon", "SingularElement",
    "VIOLATION_THRESHOLD", "ZeroMarginal", "chain_residual", "conditional",
    "conditional_entropy", "counterexample_probe", "direct_product", "entropy", "escort",
    "family_name", "family_params", "flatten", "general_escort", "havrda_charvat", "hct",
    "joint_entropy", "make_distribution", "make_family", "make_joint", "marginal", "nath",
    "product_additivity_residual", "quasi_mean", "read_distributions", "read_joint",
    "refinement_consistency", "refinement_joint", "renyi", "run_suite", "shannon",
    "strong_additivity_residual", "strongly_additive_nath", "tsallis", "uniform",
    "uniform_trace", "uniform_trace_residual", "write_distribution", "write_joint",
]

_MEAN = "(self, acc: 'float', weights: 'np.ndarray', values: 'np.ndarray') -> 'float'"
SIGNATURES = {
    Deformation: "(lam: 'float' = 0.0) -> None",
    Deformation.add: "(self, x: 'float', y: 'float') -> 'float'",
    Deformation.negate: "(self, x: 'float') -> 'float'",
    Deformation.subtract: "(self, x: 'float', y: 'float') -> 'float'",
    Deformation.h: "(self, x: 'float') -> 'float'",
    Deformation.h_inv: "(self, y: 'float') -> 'float'",
    Deformation.sum: "(self, xs: 'Iterable[float]') -> 'float'",
    LinearGenerator: "(c: 'float' = 1.0, shift: 'float' = 0.0) -> None",
    LinearGenerator.evaluate: "(self, x)",
    LinearGenerator.invert: "(self, y: 'float') -> 'float'",
    LinearGenerator.invert_mean: _MEAN,
    ExponentialGenerator:
        "(kappa: 'float', gamma: 'float' = 1.0, shift: 'float' = 0.0) -> None",
    ExponentialGenerator.evaluate: "(self, x)",
    ExponentialGenerator.invert: "(self, y: 'float') -> 'float'",
    ExponentialGenerator.invert_mean: _MEAN,
    quasi_mean:
        "(generator: 'Generator', weights: 'Distribution', values: 'Sequence[float]')"
        " -> 'float'",
}


def test_public_names():
    assert list(gentropies.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("obj", list(SIGNATURES), ids=lambda obj: obj.__qualname__)
def test_signature(obj):
    assert str(inspect.signature(obj)) == SIGNATURES[obj]


SRC = Path(__file__).resolve().parent.parent / "src"

#: each case runs in a fresh interpreter, where no submodule is loaded yet
FRESH = {
    "names-are-their-modules-objects": """
import inspect, sys
import gentropies
HOMES = ("checker", "deformed", "distributions", "entropies", "errors", "generators")
resolved = {name: getattr(gentropies, name) for name in gentropies.__all__}
for name, obj in resolved.items():
    assert vars(gentropies)[name] is obj, name  # bound: the next lookup is a plain one
    owners = [m for m in HOMES if vars(sys.modules[f"gentropies.{m}"]).get(name) is obj]
    assert owners, name
    if inspect.isclass(obj) or inspect.isfunction(obj):  # they name their defining module
        assert vars(sys.modules[obj.__module__])[name] is obj, name
""",
    "dir-lists-all": """
import gentropies
assert set(gentropies.__all__) <= set(dir(gentropies))
assert "checker" not in vars(gentropies)
""",
    "star-import-binds-all": """
import gentropies
from gentropies import *
missing = [name for name in gentropies.__all__ if name not in globals()]
assert not missing, missing
""",
    "submodules-resolve": """
import sys
import gentropies
assert "gentropies.checker" not in sys.modules and "gentropies.generators" not in sys.modules
assert gentropies.checker is sys.modules["gentropies.checker"]
assert gentropies.generators is sys.modules["gentropies.generators"]
assert gentropies.run_suite is gentropies.checker.run_suite
""",
    "trace-and-help-load-no-numpy": """
import contextlib, io, sys
import gentropies
NUMERIC = ("numpy", "gentropies._stable")
assert [m for m in sys.modules if m.startswith("gentropies.")] == ["gentropies.errors"]
assert not [m for m in NUMERIC if m in sys.modules]
import gentropies.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert gentropies.cli.main(["trace", "--family", "renyi", "--alpha", "2", "--n", "8"]) == 0
    assert gentropies.cli.main(["--help"]) == 0
assert out.getvalue().startswith("3\\n"), out.getvalue()
assert gentropies.uniform_trace(gentropies.make_family("tsallis", 2.0), 4) == 0.75
assert gentropies.Deformation(1.0).h(1.0) == 1.0
loaded = [m for m in NUMERIC if m in sys.modules]
assert not loaded, loaded
""",
    "entropy-loads-numpy": """
import sys
import gentropies
family = gentropies.shannon()
assert "numpy" not in sys.modules and "gentropies._stable" not in sys.modules
try:
    gentropies.entropy(family, None)
except TypeError:  # not a Distribution: refused after the load
    pass
else:
    raise AssertionError("no TypeError")
assert "numpy" in sys.modules and "gentropies._stable" in sys.modules
assert gentropies.entropy(family, gentropies.uniform(4)) == 2.0
""",
    "unknown-name-raises": """
import gentropies
try:
    gentropies.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("no AttributeError")
""",
}


@pytest.mark.parametrize("case", sorted(FRESH))
def test_lazy_names_in_a_fresh_interpreter(case):
    """Every submodule but `errors` loads on the first access of one of its
    names, and numpy on the first call that computes on arrays; every public
    name still resolves as before."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", FRESH[case]], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
