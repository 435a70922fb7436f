"""Transversality of parabolic invariant manifolds in planar restricted
N-body problems whose primaries form a central configuration.

The package builds configurations, extracts the harmonic content of the
gravitational perturbation, evaluates the oscillatory splitting integrals,
runs the transversality decision tree, and cross-checks everything against
direct integration of the near-infinity flow and against closed-form
asymptotics.

Names load on first use: ``import melsplit`` imports no submodule and no
numpy, and ``melsplit.classify`` (say) imports the module that defines it
the first time it is read (PEP 562).
"""
from importlib import import_module as _import_module

# module -> the public names it gives the package
_EXPORTS = {
    "config": (
        "CentralConfiguration",
        "ConfigError",
        "DegenerateConfigurationError",
        "NewtonConvergenceError",
        "NotCentralError",
        "PrimaryBody",
        "build_equilateral",
        "build_polygon",
        "build_rhomboid",
        "build_rp3bp",
        "cc_residual",
        "lambda_of",
        "load_configuration",
        "normalize_omega",
        "solve_collinear_equal",
        "solve_collinear_equidistant",
        "symmetry_order",
    ),
    "harmonics": (
        "HarmonicTable",
        "HarmonicTables",
        "harmonic_table",
        "legendre_cos_coeffs",
    ),
    "quadrature": (
        "CubicPhaseIntegrand",
        "QuadratureBudgetError",
        "QuadratureResult",
        "eval_oscillatory",
        "eval_oscillatory_list",
        "find_zeros",
        "harmonic_integrand",
    ),
    "melnikov": (
        "SplittingTerms",
        "TransversalityVerdict",
        "Witness",
        "classify",
        "leading_terms",
        "melnikov_sum",
        "simple_zeros",
        "splitting_terms",
        "verdict_to_dict",
    ),
    "dynamics": (
        "ConvergenceRegionError",
        "FlowParams",
        "IntegrationError",
        "McGeheeState",
        "hd_value",
        "homoclinic",
        "integrate",
        "integrate_mcgehee",
        "jacobi_constant",
        "rhs_mcgehee_t",
        "s_closed_form",
    ),
    "asymptotics": (
        "ik_asymptotic",
        "leading_term",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
