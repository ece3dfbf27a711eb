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

c3, Q, P, L_vec and K_vec have one body, ``gauge_columns``, on the state
components: Python floats at one state (``qpl_values``), or jets over a
stack of states (``brackets.bivector_packed``), whose values have the same
bits, as ``profile_terms`` and ``_qp_entries`` are written once for floats
and arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonholoError
from .phase import BodyParams, omega_floats
from .profile import ProfileEval, ProfileSpec, check_gamma3, eval_profile, profile_terms
from .smallalg import Vec3, pow2

#: Largest |tau1| at which [QP] is evaluated (the reduced space is singular at tau1 = +-1)
STRATA_BOUND = 1.0 - 1e-9


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
    """Evaluate c3, Q, P, L_vec, K_vec at a packed state (``gauge_columns`` on
    its six floats)."""
    x = np.asarray(x, dtype=float)
    check_gamma3(ev, x[2])
    c3, q, p, l1, l2, l3, k1, k2, k3 = gauge_columns(params, ev.rho, ev.L, ev.rho_p, ev.L_p, *x[:6].tolist())
    return LQPValues(c3, q, p, np.array([l1, l2, l3]), np.array([k1, k2, k3]))


def gauge_columns(params: BodyParams, rho, L, rho_p, L_p, g1, g2, g3, m1, m2, m3) -> tuple:
    """(c3, Q, P, L_vec, K_vec) at the state (g1, g2, g3, M1, M2, M3), the
    vectors as three components each: the one body of the gauge fields.

    The state components and profile terms are floats (``qpl_values``, one
    state) or jets (``brackets.bivector_packed`` on a stack of states), and
    both give the same bits, since every operation is elementwise IEEE
    arithmetic in the order of the 3-vector formulation: s = rho*gamma - L*e3
    and L_vec = Q*gamma + P*e3 keep their products by the zeros of e3, which
    fix the signs of zero components, and rho^2 is libm pow on each element
    (``smallalg.pow2``).
    """
    m = params.m
    w1, w2, w3 = omega_floats(params, rho, L, g1, g2, g3, m1, m2, m3)
    z = L * 0.0
    s1, s2, s3 = rho * g1 - z, rho * g2 - z, rho * g3 - L
    u1 = w2 * s3 - w3 * s2  # Omega x s, first two components
    u2 = w3 * s1 - w1 * s3
    c3 = g1 * u2 - g2 * u1  # (gamma x (Omega x s))_3
    og = w1 * g1 + w2 * g2 + w3 * g3
    q = m * (-pow2(rho) * og + rho_p * c3)
    p = m * (L * rho * og - L_p * c3)
    zp = p * 0.0
    l1, l2, l3 = q * g1 + zp, q * g2 + zp, q * g3 + p
    k = -m * rho * (g1 * s1 + g2 * s2 + g3 * s3)
    return c3, q, p, l1, l2, l3, k * w1 + l1, k * w2 + l2, k * w3 + l3


def qp_matrix(params: BodyParams, spec: ProfileSpec, tau1: float) -> np.ndarray:
    """The 2x2 matrix [QP](tau1) with (Q, P) = [QP] . (tau3, tau4).

    Both <Omega, gamma> and c3 are linear in (tau3, tau4) once tau1 is
    fixed, because Omega depends linearly on M.  The entries are the exact
    coefficients of that expansion (see ``_qp_entries``).  For the spherical
    profile (rho', L' = 0) the c3 columns drop out and the matrix has the
    constant kernel (L, -rho) up to scale.

    Raises:
        DomainError: if |tau1| > STRATA_BOUND.
        NonholoError: if float arithmetic fails (a division by an underflowed
            zero), where ``qp_grid`` gives NaN.
    """
    t1 = float(tau1)
    if abs(t1) > STRATA_BOUND:
        raise DomainError(f"tau1={t1!r} too close to the singular strata +-1")
    try:
        ev = eval_profile(spec, t1)
        q00, q01, q10, q11 = _qp_entries(params, t1, ev.rho, ev.zeta, ev.L, ev.rho_p, ev.L_p)
    except ArithmeticError as exc:
        raise NonholoError(f"[QP] at tau1={t1!r} is not finite"
                           " (the configured values are outside floating-point range)") from exc
    return np.array([[q00, q01], [q10, q11]])


def qp_grid(params: BodyParams, spec: ProfileSpec, tau1: np.ndarray) -> tuple:
    """The entries (QP00, QP01, QP10, QP11) of [QP] at every point of a tau1 array.

    Each array equals ``qp_matrix`` evaluated point by point, bit for bit:
    the profile terms and the expansion are the same bodies, applied
    elementwise.

    Raises:
        DomainError: at the first |tau1| > STRATA_BOUND.
    """
    t1 = np.asarray(tau1, dtype=float)
    size = np.abs(t1)
    if float(np.max(size)) > STRATA_BOUND:
        first = float(t1.flat[np.argmax(size > STRATA_BOUND)])
        raise DomainError(f"tau1={first!r} too close to the singular strata +-1")
    return _qp_entries(params, t1, *profile_terms(spec, t1, np.sqrt))


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
    e = (params.I1 * params.I3 + m * (params.I1 * rho * rho * one_t2 + params.I3 * zeta * zeta)) / (a1 * a3)
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
