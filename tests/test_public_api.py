"""The public names and the signatures of the deformation and generator API.

A refactor of the package must leave both as they are; these snapshots make
any change to them a deliberate edit here.
"""

import inspect

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
