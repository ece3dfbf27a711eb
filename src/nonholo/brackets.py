"""Almost-Poisson brackets on (gamma, M), their gauge transform, and reduction.

The 6x6 bracket matrix at a state x = (gamma, M) is

    Pi = [ 0         hat(gamma) ]
         [ hat(gamma)  hat(M+V) ]        hat(v)w = v x w,

so that {gamma_a, M_i} = (gamma x e_i)_a and {M_i, M_j} = -eps_ijk (M+V)_k,
with V = K_vec for the constrained (ungauged, "nh") bracket and V = L_vec
after the gauge transformation ("gauged").  Brackets of scalar fields are
contractions {f, g} = grad(f)^T Pi grad(g), and the dynamics satisfies
xdot = Pi grad(H) for both kinds (the gauge field differs from K by a
multiple of Omega, which the dynamics contracts to zero).

Sign convention: the orientation is pinned by worked anchors —
{tau1, tau2} = 1 - tau1^2 (= 0.36 at gamma3 = 0.8), {gamma1, M2} = -1 at
gamma = e3, and {H, tau4} = +4/9 at the standard worked state.  All table
entries below are the *pushforward* of Pi under tau, verified against the
6x6 contraction at 50-digit precision.

``bivector_packed`` builds Pi at one state on Python floats, or with its
derivative at the jet (``smallalg.Jet``) of a stack of states, through the
one body ``geomforms.gauge_columns``, with the same bits.  The Jacobi
trivector is Pi . dPi from that pass, cyclically summed.

<gamma, gamma> is a Casimir of Pi (the gamma-column blocks annihilate
gradients along gamma), so bracket values at on-sphere points do not depend
on how fields are extended off the sphere; the exact jet gradients in the
ambient R^6 are therefore legitimate, and they are defined at the poles.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConsistencyError, DomainError
from .geomforms import gauge_columns, qp_matrix
from .phase import BodyParams, energy_floats, invariants, omega_floats, relation_residual
from .profile import DOMAIN_SLACK, ProfileSpec, check_domain, profile_terms
from .smallalg import Jet, jacobi_trivector, jet_gradient, nan_max


class BracketKind(str, Enum):
    NH = "nh"          # constrained bracket, vector field K in the M-M block
    GAUGED = "gauged"  # gauge-transformed bracket, vector field L


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the packed state and its exact gradient."""

    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = ""


TAU1 = ScalarField(lambda x: x[2], lambda x: np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), "tau1")
TAU2 = ScalarField(lambda x: x[0] * x[4] - x[1] * x[3],
                   lambda x: np.array([x[4], -x[3], 0.0, -x[1], x[0], 0.0]), "tau2")
TAU3 = ScalarField(lambda x: x[0] * x[3] + x[1] * x[4],
                   lambda x: np.array([x[3], x[4], 0.0, x[0], x[1], 0.0]), "tau3")
TAU4 = ScalarField(lambda x: x[5], lambda x: np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), "tau4")
TAU5 = ScalarField(lambda x: x[3] ** 2 + x[4] ** 2,
                   lambda x: np.array([0.0, 0.0, 0.0, 2.0 * x[3], 2.0 * x[4], 0.0]), "tau5")
TAUS: tuple[ScalarField, ...] = (TAU1, TAU2, TAU3, TAU4, TAU5)

J1_COMPONENT = ScalarField(lambda x: -x[5], lambda x: np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0]), "j1")
J2_COMPONENT = ScalarField(lambda x: x[0] * x[3] + x[1] * x[4] + x[2] * x[5],
                           lambda x: np.array([x[3], x[4], x[5], x[0], x[1], x[2]]), "j2")


def _columns(spec: ProfileSpec, x) -> tuple:
    """The six state columns and the profile terms at them: floats at a packed
    point, jets at the jet of an (m, 6) stack; DomainError off the band."""
    if isinstance(x, Jet):
        cols, g3 = [x[:, k] for k in range(6)], x.value[:, 2]
        check_domain(float(g3[np.argmax(np.abs(g3) > 1.0 + DOMAIN_SLACK)]))  # the first point off the band, if any
        return cols, profile_terms(spec, cols[2], Jet.sqrt)
    cols = np.asarray(x, dtype=float)[:6].tolist()
    check_domain(cols[2])
    return cols, profile_terms(spec, cols[2])


def energy_at(params: BodyParams, spec: ProfileSpec, x):
    """``energy_floats`` at ``omega_floats``: ``phase.energy``'s bits at a point, a jet at a jet."""
    cols, (rho, _, L, *_) = _columns(spec, x)
    return energy_floats(params, rho, L, *cols, *omega_floats(params, rho, L, *cols))


def hamiltonian_field(params: BodyParams, spec: ProfileSpec) -> ScalarField:
    """The energy as a ScalarField, its gradient from a jet pass of ``energy_at``."""
    return ScalarField(lambda x: energy_at(params, spec, x),
                       lambda x: jet_gradient(lambda y: energy_at(params, spec, y), x), "H")


def bivector_packed(params: BodyParams, spec: ProfileSpec, x, kind: BracketKind):
    """The 6x6 bracket matrix at a packed point, or the jet of the (m, 6, 6)
    stack of them at the jet of an (m, 6) stack (no state validation).

    Entries: {gamma_a, gamma_b} = 0, {gamma_a, M_i} = (gamma x e_i)_a,
    {M_i, M_j} = -eps_ijk (M + V)_k with V = L_vec (gauged) or K_vec (nh).
    Every block is a hat matrix, so antisymmetry is exact by construction.

    One point is evaluated on Python floats, a stack on its columns as jets;
    ``geomforms.gauge_columns`` gives both the same bits, so each matrix of
    the value part equals the matrix of its point.

    Raises:
        DomainError: if a point has |gamma3| > 1 + DOMAIN_SLACK.
    """
    cols, (rho, _, L, rho_p, _, L_p) = _columns(spec, x)
    vals = gauge_columns(params, rho, L, rho_p, L_p, *cols)
    v = vals[3:6] if kind == BracketKind.GAUGED else vals[6:9]
    g1, g2, g3 = cols[:3]
    n1, n2, n3 = (mi + vi for mi, vi in zip(cols[3:6], v))
    rows = [  # [[0, hat(gamma)], [hat(gamma), hat(M + V)]]
        [0.0, 0.0, 0.0, 0.0, -g3, g2],
        [0.0, 0.0, 0.0, g3, 0.0, -g1],
        [0.0, 0.0, 0.0, -g2, g1, 0.0],
        [0.0, -g3, g2, 0.0, -n3, n2],
        [g3, 0.0, -g1, n3, 0.0, -n1],
        [-g2, g1, 0.0, -n2, n1, 0.0],
    ]
    return Jet.matrix(rows) if isinstance(x, Jet) else np.array(rows)


def bracket(
    params: BodyParams,
    spec: ProfileSpec,
    f,
    g,
    x,
    kind: BracketKind,
) -> float:
    """Evaluate {f, g} = grad(f)^T Pi grad(g) of ScalarFields at a packed state."""
    x = np.asarray(x, dtype=float)
    pi = bivector_packed(params, spec, x, kind)
    return float(f.grad(x) @ pi @ g.grad(x))


def jacobiator(
    params: BodyParams, spec: ProfileSpec, f, g, h, x, kind: BracketKind
) -> float:
    """Cyclic sum {f,{g,h}} + {g,{h,f}} + {h,{f,g}} of ScalarFields at a packed
    state: the Jacobi trivector contracted with the three gradients.
    """
    x = np.asarray(x, dtype=float)
    t = jacobi_trivector(bivector_packed(params, spec, Jet.seed(x[None]), kind))[0]
    return float(np.einsum("iab,i,a,b->", t, f.grad(x), g.grad(x), h.grad(x)))


def s1_generator(x: np.ndarray) -> np.ndarray:
    """Infinitesimal generator of the S^1 action: (e3 x gamma, e3 x M)."""
    return np.array([-x[1], x[0], 0.0, -x[4], x[3], 0.0])


def reduced_bivector_tau(params: BodyParams, spec: ProfileSpec, tau) -> np.ndarray:
    """Explicit 5x5 bracket table at the invariants ``tau`` = (tau1, ..., tau5).

    This is the pushforward of the gauged 6x6 bracket (the table as
    sometimes displayed carries sign/factor slips in the tau2/tau5 rows and
    is not realizable as a pushforward; see the standing pushforward test):

        {t1,t2} = 1 - t1^2            {t1,t5} = 2 t2
        {t2,t3} = (1 - t1^2) (t4 + L3)
        {t2,t4} = -(1 - t1^2) Q
        {t2,t5} = -2 (t1 t5 - t3 (t4 + L3))
        {t3,t5} = -2 t2 (t4 + L3)     {t4,t5} = 2 t2 Q
        {t1,t3} = {t1,t4} = {t3,t4} = 0

    with (Q, P) = [QP](t1) . (t3, t4) and L3 = Q t1 + P.

    Raises:
        ConsistencyError: if tau violates the semialgebraic relation
            by more than 1e-6.
        DomainError: if |t1| > 1 - 1e-9.
    """
    t1, t2, t3, t4, t5 = np.asarray(tau, dtype=float).tolist()
    res = relation_residual(t1, t2, t3, t5)
    if abs(res) > 1e-6:
        raise ConsistencyError(f"invariant relation violated by {res!r}")
    if abs(t1) > 1.0 - 1e-9:
        raise DomainError(f"tau1={t1!r} too close to the singular strata +-1")
    qp = qp_matrix(params, spec, t1)
    q = qp[0, 0] * t3 + qp[0, 1] * t4
    p = qp[1, 0] * t3 + qp[1, 1] * t4
    l3 = q * t1 + p
    one_t2 = 1.0 - t1 * t1
    upper = np.zeros((5, 5))
    upper[0, 1] = one_t2
    upper[0, 4] = 2.0 * t2
    upper[1, 2] = one_t2 * (t4 + l3)
    upper[1, 3] = -one_t2 * q
    upper[1, 4] = -2.0 * (t1 * t5 - t3 * (t4 + l3))
    upper[2, 4] = -2.0 * t2 * (t4 + l3)
    upper[3, 4] = 2.0 * t2 * q
    return upper - upper.T  # antisymmetric by construction


def pushforward_residual(params: BodyParams, spec: ProfileSpec, x) -> float:
    """max over pairs |{tau_a, tau_b}_gauged - explicit table entry| at a packed state."""
    x = np.asarray(x, dtype=float)
    pi = bivector_packed(params, spec, x, BracketKind.GAUGED)
    grads = [t.grad(x) for t in TAUS]
    table = reduced_bivector_tau(params, spec, invariants(x))
    return nan_max(abs(float(grads[a] @ pi @ grads[b]) - table[a, b])
                   for a in range(5) for b in range(a + 1, 5))


@dataclass(frozen=True)
class CasimirResiduals:
    """Residuals certifying that the gauge momenta are Casimirs.

    max_j1 / max_j2: max |{J_i, tau_k}| over the five invariant coordinates;
    involution: |{J1, J2}|;
    vertical1 / vertical2: max-norm of Pi grad(J_i) - f_i(tau1) * generator
      (the bracket-hamiltonian vector field of a gauge momentum is vertical,
      proportional to the S^1 generator with factor f_i).
    """

    max_j1: float
    max_j2: float
    involution: float
    vertical1: float
    vertical2: float


def casimir_residuals(
    params: BodyParams,
    spec: ProfileSpec,
    x,
    momenta,
) -> CasimirResiduals:
    """Evaluate the Casimir certificate of the gauged bracket at a packed state.

    ``momenta`` is a MomentaSolution; J-field gradients take the
    tau1-derivatives from ``momenta.slope``, so the residuals measure the
    structure, not interpolation error.
    """
    from .momenta import gauge_momentum_fields

    x = np.asarray(x, dtype=float)
    pi = bivector_packed(params, spec, x, BracketKind.GAUGED)
    gen = s1_generator(x)
    grads = [jf.grad(x) for jf in gauge_momentum_fields(momenta)]
    pairs = momenta.eval(x[2])
    out = []
    verts = []
    for idx, gj in enumerate(grads):
        flow = pi @ gj
        out.append(nan_max(abs(float(t.grad(x) @ flow)) for t in TAUS))
        verts.append(float(np.max(np.abs(flow - pairs[2 * idx] * gen))))
    inv = abs(float(grads[0] @ pi @ grads[1]))
    return CasimirResiduals(out[0], out[1], inv, verts[0], verts[1])
