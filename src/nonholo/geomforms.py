"""Gauge fields of the rolling problem: the scalars Q, P and vectors L, K.

The almost-Poisson bracket of the constrained system and its gauge
transformation are both encoded by a single vector field each in the
M-M block; everything is built from two scalars,

    c3 = (gamma x (Omega x s))_3,
    Q  = m * (-rho^2 * <Omega, gamma> + rho' * c3),
    P  = m * (L * rho * <Omega, gamma> - L' * c3),

through L_vec = Q*gamma + P*e3 (the gauge choice that hamiltonizes) and
K_vec = -m*rho*<gamma, s>*Omega + L_vec (the ungauged field).  The signs of
the c3 terms are fixed by the dynamics itself: (M + L_vec) x Omega has to
reproduce the momentum equation of the rolling body, and an independent
full Newton-Euler simulation pins them down (rho', L' vanish for the
spherical profile, so only aspherical bodies are sensitive to this).

Both scalars are linear in the momenta: for fixed tau1 there is a 2x2
matrix [QP] with

    (Q, P) = [QP](tau1) . (tau3, tau4),

whose entries involve only the profile data and the inertia.  This
linearity is what turns the search for conserved momenta into a linear ODE
in tau1 (see the momenta module); it is covered by a standing dual-route
consistency test.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .phase import BodyParams, omega_from_M
from .profile import (
    ProfileEval,
    ProfileSpec,
    contact_vector,
    eval_profile,
    legendre_ptau,
    profile_terms,
)
from .smallalg import E3, Vec3, cross, dot


@dataclass(frozen=True)
class LQPValues:
    """The gauge scalars and vectors at one state.

    Invariants (exact by construction here, asserted in tests):
        Lvec = Q*gamma + P*e3
        Kvec = -m*rho*<gamma,s>*Omega + Lvec
    """

    c3: float
    Q: float
    P: float
    Lvec: Vec3
    Kvec: Vec3


def qpl_values(params: BodyParams, ev: ProfileEval, x) -> LQPValues:
    """Evaluate c3, Q, P, L_vec, K_vec at a packed state."""
    x = np.asarray(x, dtype=float)
    omega = omega_from_M(params, ev, x)
    gamma = x[:3]
    s = contact_vector(ev, gamma)
    c3 = cross(gamma, cross(omega, s))[2]
    og = dot(omega, gamma)
    q = params.m * (-ev.rho**2 * og + ev.rho_p * c3)
    p = params.m * (ev.L * ev.rho * og - ev.L_p * c3)
    lvec = q * gamma + p * E3
    kvec = -params.m * ev.rho * dot(gamma, s) * omega + lvec
    return LQPValues(float(c3), float(q), float(p), lvec, kvec)


def qp_matrix(params: BodyParams, spec: ProfileSpec, tau1: float) -> np.ndarray:
    """The 2x2 matrix [QP](tau1) with (Q, P) = [QP] . (tau3, tau4).

    Both <Omega, gamma> and c3 are linear in (tau3, tau4) once tau1 is
    fixed, because Omega depends linearly on M.  The entries are the exact
    coefficients of that expansion (see ``_qp_entries``).  For the spherical
    profile (rho', L' = 0) the c3 columns drop out and the matrix has the
    constant kernel (L, -rho) up to scale.

    Raises:
        DomainError: if |tau1| > 1 - 1e-9 (reduced space is singular at the
            vertical strata).
    """
    t1 = float(tau1)
    if abs(t1) > 1.0 - 1e-9:
        raise DomainError(f"tau1={t1!r} too close to the singular strata +-1")
    ev = eval_profile(spec, t1)
    q00, q01, q10, q11 = _qp_entries(params, t1, ev.rho, ev.zeta, ev.L, ev.rho_p, ev.L_p)
    return np.array([[q00, q01], [q10, q11]])


def qp_grid(params: BodyParams, spec: ProfileSpec, tau1: np.ndarray) -> tuple:
    """The entries (QP00, QP01, QP10, QP11) of [QP] at every point of a tau1 array.

    Each array equals ``qp_matrix`` evaluated point by point, bit for bit:
    the profile terms and the expansion are the same bodies, applied
    elementwise.

    Raises:
        DomainError: if any |tau1| > 1 - 1e-9.
    """
    t1 = np.asarray(tau1, dtype=float)
    if float(np.max(np.abs(t1))) > 1.0 - 1e-9:
        raise DomainError("tau1 grid reaches the singular strata +-1")
    rho, zeta, L, rho_p, _, L_p = profile_terms(spec, t1, np.sqrt)
    return _qp_entries(params, t1, rho, zeta, L, rho_p, L_p)


def _qp_entries(params: BodyParams, t1, rho, zeta, L, rho_p, L_p) -> tuple:
    """Entries of [QP] from the profile terms; floats or elementwise on arrays.

    Written with

        A1 = I1 + m*<s,s>,  A3 = I3 + m*<s,s>,
        E  = Ptau / (A1*A3),
        Ptau = I1*I3 + m*(I1*rho^2*(1-tau1^2) + I3*zeta^2),
        G  = rho*(1-tau1^2)/A1 + zeta*tau1/A3   (this is <A^-1 s, gamma>).
    """
    m = params.m
    one_t2 = 1.0 - t1 * t1
    ss = rho * rho * one_t2 + zeta * zeta
    a1 = params.I1 + m * ss
    a3 = params.I3 + m * ss
    e = legendre_ptau(params, rho, zeta, one_t2) / (a1 * a3)
    big_g = rho * one_t2 / a1 + zeta * t1 / a3
    gs = rho - L * t1

    # coefficients of <s, Omega>, <Omega, gamma> and Omega_3 in (tau3, tau4)
    som = (rho / (a1 * e), zeta / (a3 * e))
    og = (1.0 / a1 + m * som[0] * big_g, t1 / a3 + m * som[1] * big_g)
    om3 = (m * som[0] * zeta / a3, 1.0 / a3 + m * som[1] * zeta / a3)
    c3 = (om3[0] * gs - zeta * og[0], om3[1] * gs - zeta * og[1])

    return (
        m * (-rho * rho * og[0] + rho_p * c3[0]),
        m * (-rho * rho * og[1] + rho_p * c3[1]),
        m * (L * rho * og[0] - L_p * c3[0]),
        m * (L * rho * og[1] - L_p * c3[1]),
    )
