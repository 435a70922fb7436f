"""Transversality of parabolic invariant manifolds in planar restricted
N-body problems whose primaries form a central configuration.

The package builds configurations, extracts the harmonic content of the
gravitational perturbation, evaluates the oscillatory splitting integrals,
runs the transversality decision tree, and cross-checks everything against
direct integration of the near-infinity flow and against closed-form
asymptotics.
"""
from .config import (
    CentralConfiguration,
    CentralityReport,
    ConfigError,
    DegenerateConfigurationError,
    NewtonConvergenceError,
    NotCentralError,
    PrimaryBody,
    build_equilateral,
    build_polygon,
    build_rhomboid,
    build_rp3bp,
    cc_residual,
    lambda_of,
    load_configuration,
    normalize_omega,
    solve_collinear_equal,
    solve_collinear_equidistant,
    symmetry_order,
)
from .harmonics import (
    HarmonicTable,
    HarmonicTables,
    harmonic_table,
    legendre_cos_coeffs,
)
from .quadrature import (
    CubicPhaseIntegrand,
    QuadratureBudgetError,
    QuadratureResult,
    eval_Ik,
    eval_Jk,
    eval_oscillatory,
    find_zeros,
    harmonic_integrand,
)
from .melnikov import (
    SplittingTerms,
    TransversalityVerdict,
    Witness,
    classify,
    leading_terms,
    melnikov_sum,
    simple_zeros,
    splitting_terms,
    verdict_to_dict,
)
from .dynamics import (
    ConvergenceRegionError,
    FlowParams,
    IntegrationError,
    McGeheeState,
    PoincareReturnError,
    hd_value,
    homoclinic,
    integrate,
    integrate_mcgehee,
    jacobi_constant,
    poincare_numeric,
    rhs_mcgehee_t,
    s_closed_form,
    theta_from_jacobi,
)
from .asymptotics import (
    ik_asymptotic,
    leading_term,
)

__version__ = "0.1.0"
