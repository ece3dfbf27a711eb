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

``bivector_packed`` builds Pi at one state on Python floats, at a stack of
states on its columns, or with its derivative at the jet (``smallalg.Jet``)
of a stack, through the one body ``geomforms.gauge_columns`` and the one
assembly ``smallalg.matrix``, with the same bits.  The Jacobi
trivector is Pi . dPi from that pass, cyclically summed.  The certificate
kernels (``pushforward_residual``, ``casimir_residuals``,
``reduced_bivector_tau``) and the gradients of the invariants and of the
gauge momenta take one state or an (m, 6) stack; a state is a stack of
one, and the products are two-operand ``einsum`` steps, never BLAS.

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
from .geomforms import gauge_columns, qp_grid
from .phase import BodyParams, energy_floats, invariants, omega_floats, relation_residual
from .profile import ProfileSpec, state_terms
from .smallalg import Jet, columns, jacobi_trivector, jet_gradient, matrix, stacked


class BracketKind(str, Enum):
    NH = "nh"          # constrained bracket, vector field K in the M-M block
    GAUGED = "gauged"  # gauge-transformed bracket, vector field L


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the packed state and its exact gradient.  The
    gradients of the package's own fields also take an (m, n) stack of
    states, to (m, n) rows."""

    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def _state_field(name: str, fn, grad) -> ScalarField:
    """The ScalarField of ``fn`` and ``grad`` (its six gradient entries), both
    written on the state columns c: floats at a packed state, arrays over an
    (m, 6) stack (``smallalg.columns``)."""
    def gradient(x):
        c = columns(x)
        return stacked(grad(c), c[0])

    return ScalarField(lambda x: fn(columns(x)), gradient, name)


TAU1 = _state_field("tau1", lambda c: c[2], lambda c: (0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
TAU2 = _state_field("tau2", lambda c: c[0] * c[4] - c[1] * c[3], lambda c: (c[4], -c[3], 0.0, -c[1], c[0], 0.0))
TAU3 = _state_field("tau3", lambda c: c[0] * c[3] + c[1] * c[4], lambda c: (c[3], c[4], 0.0, c[0], c[1], 0.0))
TAU4 = _state_field("tau4", lambda c: c[5], lambda c: (0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
TAU5 = _state_field("tau5", lambda c: c[3] * c[3] + c[4] * c[4],
                    lambda c: (0.0, 0.0, 0.0, 2.0 * c[3], 2.0 * c[4], 0.0))
TAUS: tuple[ScalarField, ...] = (TAU1, TAU2, TAU3, TAU4, TAU5)

J1_COMPONENT = _state_field("j1", lambda c: -c[5], lambda c: (0.0, 0.0, 0.0, 0.0, 0.0, -1.0))
J2_COMPONENT = _state_field("j2", lambda c: c[0] * c[3] + c[1] * c[4] + c[2] * c[5],
                            lambda c: (c[3], c[4], c[5], c[0], c[1], c[2]))


def energy_at(params: BodyParams, spec: ProfileSpec, x):
    """``energy_floats`` at ``omega_floats``: ``phase.energy``'s bits at a point, a jet at a jet."""
    cols, (rho, _, L, *_) = state_terms(spec, x)
    return energy_floats(params, rho, L, *cols, *omega_floats(params, rho, L, *cols))


def hamiltonian_field(params: BodyParams, spec: ProfileSpec) -> ScalarField:
    """The energy as a ScalarField, its gradient from a jet pass of ``energy_at``."""
    return ScalarField(lambda x: energy_at(params, spec, x),
                       lambda x: jet_gradient(lambda y: energy_at(params, spec, y), x), "H")


def bivector_packed(params: BodyParams, spec: ProfileSpec, x, kind: BracketKind):
    """The 6x6 bracket matrix at a packed point, the (m, 6, 6) stack of them at
    an (m, 6) stack, or the jet of that stack at the jet of an (m, 6) stack
    (no state validation).

    Entries: {gamma_a, gamma_b} = 0, {gamma_a, M_i} = (gamma x e_i)_a,
    {M_i, M_j} = -eps_ijk (M + V)_k with V = L_vec (gauged) or K_vec (nh).
    Every block is a hat matrix, so antisymmetry is exact by construction.

    One point is evaluated on Python floats, a stack on its columns (arrays,
    or jets); ``geomforms.gauge_columns`` gives them all the same bits, so
    each matrix of a stack, or of a jet's value part, equals the matrix of
    its point.  ``smallalg.matrix`` assembles all three.

    Raises:
        DomainError: if a point has |gamma3| > 1 + DOMAIN_SLACK.
    """
    cols, (rho, _, L, rho_p, _, L_p) = state_terms(spec, x)
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
    return matrix(rows)


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


def s1_generator(x) -> np.ndarray:
    """Infinitesimal generator of the S^1 action, (e3 x gamma, e3 x M), at a
    packed state, or its (m, 6) rows at an (m, 6) stack."""
    c = columns(x)
    return stacked((-c[1], c[0], 0.0, -c[4], c[3], 0.0), c[0])


def tau_gradients(xs: np.ndarray) -> np.ndarray:
    """The (m, 5, 6) gradients of tau1..tau5 at an (m, 6) stack of states."""
    return np.stack([t.grad(xs) for t in TAUS], axis=1)


def reduced_bivector_tau(params: BodyParams, spec: ProfileSpec, tau) -> np.ndarray:
    """Explicit 5x5 bracket table at the invariants ``tau`` = (tau1, ..., tau5),
    or the (m, 5, 5) tables at an (m, 5) stack of them.

    This is the pushforward of the gauged 6x6 bracket (the table as
    sometimes displayed carries sign/factor slips in the tau2/tau5 rows and
    is not realizable as a pushforward; see the standing pushforward test):

        {t1,t2} = 1 - t1^2            {t1,t5} = 2 t2
        {t2,t3} = (1 - t1^2) (t4 + L3)
        {t2,t4} = -(1 - t1^2) Q
        {t2,t5} = -2 (t1 t5 - t3 (t4 + L3))
        {t3,t5} = -2 t2 (t4 + L3)     {t4,t5} = 2 t2 Q
        {t1,t3} = {t1,t4} = {t3,t4} = 0

    with (Q, P) = [QP](t1) . (t3, t4) and L3 = Q t1 + P.  Every entry is
    elementwise in the stack, ``[QP]`` from ``qp_grid`` (the bits of
    ``qp_matrix``), so a table has the same bits in a stack or alone.

    Raises:
        ConsistencyError: if a tau violates the semialgebraic relation
            by more than 1e-6.
        DomainError: if a |t1| > 1 - 1e-9.
    """
    tau = np.asarray(tau, dtype=float)
    t1, t2, t3, t4, t5 = tau.reshape(-1, 5).T
    res = relation_residual(t1, t2, t3, t5)
    bad = np.abs(res) > 1e-6
    if bad.any():
        raise ConsistencyError(f"invariant relation violated by {float(res[np.argmax(bad)])!r}")
    bad = np.abs(t1) > 1.0 - 1e-9
    if bad.any():
        raise DomainError(f"tau1={float(t1[np.argmax(bad)])!r} too close to the singular strata +-1")
    qp00, qp01, qp10, qp11 = qp_grid(params, spec, t1)
    q = qp00 * t3 + qp01 * t4
    p = qp10 * t3 + qp11 * t4
    l3 = q * t1 + p
    one_t2 = 1.0 - t1 * t1
    upper = np.zeros((len(t1), 5, 5))
    upper[:, 0, 1] = one_t2
    upper[:, 0, 4] = 2.0 * t2
    upper[:, 1, 2] = one_t2 * (t4 + l3)
    upper[:, 1, 3] = -one_t2 * q
    upper[:, 1, 4] = -2.0 * (t1 * t5 - t3 * (t4 + l3))
    upper[:, 2, 4] = -2.0 * t2 * (t4 + l3)
    upper[:, 3, 4] = 2.0 * t2 * q
    table = upper - upper.transpose(0, 2, 1)  # antisymmetric by construction
    return table.reshape(tau.shape[:-1] + (5, 5))


#: The pairs a < b of the five invariants, as two index arrays
_PAIRS = np.triu_indices(5, 1)


def pushforward_residual(params: BodyParams, spec: ProfileSpec, x, pi=None):
    """max over pairs |{tau_a, tau_b}_gauged - explicit table entry| at a packed
    state, or the (m,) values at an (m, 6) stack, whose gauged matrices ``pi``
    a caller may pass."""
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, 6)
    pi = bivector_packed(params, spec, xs, BracketKind.GAUGED) if pi is None else pi
    d = tau_gradients(xs)
    brackets = np.einsum("nqb,npb->npq", d, np.einsum("npa,nab->npb", d, pi))
    table = reduced_bivector_tau(params, spec, invariants(xs))
    worst = np.max(np.abs(brackets - table)[:, _PAIRS[0], _PAIRS[1]], axis=1)
    return worst if x.ndim > 1 else float(worst[0])


@dataclass(frozen=True)
class CasimirResiduals:
    """Residuals certifying that the gauge momenta are Casimirs: floats at a
    state, or (m,) arrays over a stack of them.

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


def casimir_residuals(params: BodyParams, spec: ProfileSpec, x, momenta, pi=None) -> CasimirResiduals:
    """Evaluate the Casimir certificate of the gauged bracket at a packed state,
    or at each state of an (m, 6) stack, whose gauged matrices ``pi`` a caller
    may pass.

    ``momenta`` is a MomentaSolution; J-field gradients take the
    tau1-derivatives from ``momenta.slope``, so the residuals measure the
    structure, not interpolation error.  A state off ``momenta`` gets NaN
    residuals.
    """
    from .momenta import _gauge_gradient

    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, 6)
    pi = bivector_packed(params, spec, xs, BracketKind.GAUGED) if pi is None else pi
    d, gen, pairs, slopes = tau_gradients(xs), s1_generator(xs), momenta.eval(xs[:, 2]), momenta.slope(xs[:, 2])
    grads = [_gauge_gradient(k, xs, pairs, slopes) for k in (0, 1)]
    flows = [np.einsum("nab,nb->na", pi, g) for g in grads]
    values = [np.max(np.abs(np.einsum("npa,na->np", d, f)), axis=1) for f in flows]
    values.append(np.abs(np.einsum("nb,nb->n", np.einsum("na,nab->nb", grads[0], pi), grads[1])))
    values += [np.max(np.abs(f - pairs[:, 2 * k, None] * gen), axis=1) for k, f in enumerate(flows)]
    return CasimirResiduals(*(v if x.ndim > 1 else float(v[0]) for v in values))
