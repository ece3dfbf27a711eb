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
    hamiltonian_field,
    jacobiator,
    pushforward_residual,
    reduced_bivector_tau,
)
from .dynamics import (
    IntegratorConfig,
    default_momenta,
    drift,
    drift_report,
    integrate,
    nonconservation_rates,
    reconstruct_full,
    rhs,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    NonholoError,
)
from .geomforms import LQPValues, qp_matrix, qpl_values
from .momenta import (
    MomentaSolution,
    closed_form_momenta,
    eval_gauge_momenta,
    gauge_momentum_fields,
    momenta_ode_rhs,
    ode_residual,
    routh_closed_form,
    routh_closed_form_derivative,
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
    M_from_omega,
    omega_from_M,
)
from .profile import ProfileEval, ProfileSpec, contact_vector, eval_profile, profile_scalars
from .smallalg import cross, dot, grad_fd, rk4_step, vec3

__version__ = "0.1.0"

__all__ = [
    "BodyParams",
    "BracketKind",
    "ConfigError",
    "ConsistencyError",
    "DegeneracyError",
    "DomainError",
    "IntegratorConfig",
    "LQPValues",
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
    "contact_vector",
    "cross",
    "default_momenta",
    "dot",
    "drift",
    "drift_report",
    "energy",
    "eval_gauge_momenta",
    "eval_profile",
    "gauge_momentum_fields",
    "grad_fd",
    "hamiltonian_field",
    "integrate",
    "invariants",
    "jacobiator",
    "M_from_omega",
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
    "profile_scalars",
    "pushforward_residual",
    "qp_matrix",
    "qpl_values",
    "reconstruct_full",
    "reduced_bivector_tau",
    "rhs",
    "rk4_step",
    "routh_closed_form",
    "routh_closed_form_derivative",
    "solve_momenta",
    "vec3",
]
