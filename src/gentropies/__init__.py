"""Generalized entropies with escort conditionals and deformed addition.

Core pieces: finite (ragged) probability distributions, the
lambda-deformed addition group, quasi-linear means over the two classified
generator families, the Shannon / Nath-Renyi / general-escort /
Havrda-Charvat-Tsallis entropy families with their composition laws, and a
seeded numerical harness that verifies the strong-additivity axioms and
reproduces the counterexamples that force the escort exponent to 1.

``import gentropies`` loads ``errors`` alone.  Every other submodule loads
on the first access of one of its names (PEP 562), which binds all of that
module's names here.  `entropies` (families, constructors, `make_family`,
`uniform_trace`) and `deformed` are plain Python; `_stable`, `distributions`
and numpy load on the first call that computes on arrays, such as
`entropy` or `make_distribution`.  So a CLI process, which pays for every
module it imports, runs ``trace`` without numpy, and loads the harness
(``checker``) only for ``check`` and the mean generators (``generators``)
only for an exponential conditional mean.  ``json`` likewise loads only where
JSON is read or written.
"""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    EscortUndefined,
    FormatError,
    GentropiesError,
    NegativeMass,
    NotNormalized,
    Overflow,
    ParameterError,
    SingularElement,
    ZeroMarginal,
)

__version__ = "0.1.0"

__all__ = [
    "CheckConfig",
    "CheckRecord",
    "CheckReport",
    "ConfigError",
    "Deformation",
    "DimensionError",
    "Distribution",
    "DomainError",
    "EntropyFamily",
    "EscortUndefined",
    "ExponentialGenerator",
    "FormatError",
    "GeneralEscort",
    "Generator",
    "GentropiesError",
    "HCT",
    "JointDistribution",
    "LinearGenerator",
    "Nath",
    "NegativeMass",
    "NotNormalized",
    "Overflow",
    "PROBE_JOINT",
    "ParameterError",
    "Shannon",
    "SingularElement",
    "VIOLATION_THRESHOLD",
    "ZeroMarginal",
    "chain_residual",
    "conditional",
    "conditional_entropy",
    "counterexample_probe",
    "direct_product",
    "entropy",
    "escort",
    "family_name",
    "family_params",
    "flatten",
    "general_escort",
    "havrda_charvat",
    "hct",
    "joint_entropy",
    "make_distribution",
    "make_family",
    "make_joint",
    "marginal",
    "nath",
    "product_additivity_residual",
    "quasi_mean",
    "read_distributions",
    "read_joint",
    "refinement_consistency",
    "refinement_joint",
    "renyi",
    "run_suite",
    "shannon",
    "strong_additivity_residual",
    "strongly_additive_nath",
    "tsallis",
    "uniform",
    "uniform_trace",
    "uniform_trace_residual",
    "write_distribution",
    "write_joint",
]

#: name -> the submodule that defines it, imported on the first access of any
#: of its names (PEP 562); a submodule's own name maps to it as well
_LAZY = {
    **dict.fromkeys(("Deformation", "deformed"), "deformed"),
    **dict.fromkeys(("Distribution", "JointDistribution", "conditional", "direct_product",
                     "escort", "flatten", "make_distribution", "make_joint", "marginal",
                     "read_distributions", "read_joint", "refinement_joint", "uniform",
                     "write_distribution", "write_joint", "distributions"), "distributions"),
    **dict.fromkeys(("HCT", "EntropyFamily", "GeneralEscort", "Nath", "Shannon",
                     "conditional_entropy", "entropy", "family_name", "family_params",
                     "general_escort", "havrda_charvat", "hct", "joint_entropy", "make_family",
                     "nath", "renyi", "shannon", "strongly_additive_nath", "tsallis",
                     "uniform_trace", "entropies"), "entropies"),
    **dict.fromkeys(("PROBE_JOINT", "VIOLATION_THRESHOLD", "CheckConfig", "CheckRecord",
                     "CheckReport", "chain_residual", "counterexample_probe",
                     "product_additivity_residual", "refinement_consistency", "run_suite",
                     "strong_additivity_residual", "uniform_trace_residual", "checker"),
                    "checker"),
    **dict.fromkeys(("ExponentialGenerator", "Generator", "LinearGenerator", "quasi_mean",
                     "generators"), "generators"),
}


def __getattr__(name: str):
    where = _LAZY.get(name)
    if where is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"{__name__}.{where}")  # binds the submodule itself
    # every name of the module at once: none of them comes back here
    globals().update((n, getattr(module, n)) for n, m in _LAZY.items()
                     if m == where and n != where)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
