"""Nonholonomic rolling solids of revolution and their hamiltonization.

The package simulates a convex solid of revolution rolling without slipping
on a horizontal plane (Routh sphere and ellipsoid-of-revolution presets, plus
a kinetic-energy particle with one linear constraint as a smaller companion
system), and numerically certifies the algebraic structure behind the
dynamics: almost-Poisson bivectors and their gauge transformation, the
coefficient ODE for horizontal gauge momenta, Casimirs of the gauged bracket,
and the failure of the Jacobi identity before gauging.
"""
from .brackets import (
    BracketKind,
    ScalarField,
    bivector_packed,
    bracket,
    casimir_residuals,
    jacobiator,
    pushforward_residual,
    reduced_bivector_tau,
)
from .dynamics import (
    IntegratorConfig,
    drift,
    drift_report,
    integrate,
    nonconservation_rates,
    rhs,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    NonholoError,
)
from .geomforms import qp_matrix, qpl_values
from .momenta import (
    MomentaSolution,
    closed_form_momenta,
    eval_gauge_momenta,
    momenta_ode_rhs,
    ode_residual,
    routh_closed_form,
    routh_closed_form_derivative,
    solution_for,
    solve_momenta,
)
from .particle import (
    particle_bracket,
    particle_hamiltonian,
    particle_integrate,
    particle_jacobiator_reduced,
    particle_jacobiator_unreduced,
    particle_momentum,
    particle_rhs,
)
from .phase import (
    BodyParams,
    StateGM,
    energy,
    invariants,
    momentum_components,
    omega_from_M,
)
from .profile import ProfileEval, ProfileSpec, eval_profile
from .smallalg import rk4_step

__version__ = "0.1.0"

__all__ = [
    "BodyParams",
    "BracketKind",
    "ConfigError",
    "ConsistencyError",
    "DegeneracyError",
    "DomainError",
    "IntegratorConfig",
    "MomentaSolution",
    "NonholoError",
    "ProfileEval",
    "ProfileSpec",
    "ScalarField",
    "StateGM",
    "bivector_packed",
    "bracket",
    "casimir_residuals",
    "closed_form_momenta",
    "drift",
    "drift_report",
    "energy",
    "eval_gauge_momenta",
    "eval_profile",
    "integrate",
    "invariants",
    "jacobiator",
    "momenta_ode_rhs",
    "momentum_components",
    "nonconservation_rates",
    "ode_residual",
    "omega_from_M",
    "particle_bracket",
    "particle_hamiltonian",
    "particle_integrate",
    "particle_jacobiator_reduced",
    "particle_jacobiator_unreduced",
    "particle_momentum",
    "particle_rhs",
    "pushforward_residual",
    "qp_matrix",
    "qpl_values",
    "reduced_bivector_tau",
    "rhs",
    "rk4_step",
    "routh_closed_form",
    "routh_closed_form_derivative",
    "solution_for",
    "solve_momenta",
]
