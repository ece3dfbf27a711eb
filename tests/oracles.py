"""The per-state numpy bodies that the package replaced, kept as bit-for-bit oracles.

``integrate``, ``particle_integrate`` and the kernels below are the
3-vector numpy formulations that the package ran before its integrators
stepped on Python floats: one ``rk4_step`` of arrays per step, ``rhs`` built
from ``cross`` calls, ``omega_from_M`` and ``energy`` on arrays, the
particle's J and E taken from numpy scalars, and one ``momenta.eval`` per
trajectory row.  ``qpl_values`` and ``bivector_packed`` are the
one-state-at-a-time bracket bodies that the stacked jet pass replaced.  The
package must reproduce them to the bit; ``test_float_stepper.py`` and
``test_stacked_brackets.py`` compare ``.view(np.int64)``.
``jacobi_trivector`` is the 5-point stencil that the jets replaced, one
``pi_fn`` call per stencil point at relative step ``STENCIL_STEP``: an
independent reference that the jet trivector must match at the stencil's
truncation floor.  ``rk4_step_n`` is the generic float step that the
package's written-out five- and six-element RK4 steps reproduce, and
``state_gradient`` the hand-written gradients of tau1..tau5, j1 and j2 that
the jet passes replaced.  ``same_bits`` and the float strategies below
serve every such comparison.

The next bodies are partners that only tests ever called, kept here as
independent references rather than package code: ``dot``, ``E3``,
``contact_vector`` (the 3-vector s = rho*gamma - L*e3), ``zeta_prime`` (the
profile's zeta', which no package code reads), ``cross``, ``hat``,
``M_from_omega`` (the forward map of the ``omega_from_M`` round trip),
the particle's frame form (``frame_form``, the constrained 2-form F in the
frame e1 = d/dx + y d/dz, e2, e3, e4; ``frame_bracket``, B = -F^-1 by
LAPACK; ``frame``, the 5x4 matrix E of the frame; ``frame_gradient``,
E^T grad f), written from the particle's definition with no package body,
and ``reconstruct_full`` (the attitude and contact trace that cross-check
``integrate``'s gamma column).

The last are the per-sample check records that ``nonholo.certify`` replaced
with one array pass over all samples (``per_sample``), and the one-state
kernels with ``@`` products they called: ``casimir_residuals`` (on the
ScalarFields of ``gauge_momentum_fields``), ``pushforward_residual``,
``reduced_bivector_tau`` and ``nonconservation_rates``.  The particle's
records contract the frame form instead of the package's coordinate
bivector P = E B E^T:
``particle_bracket`` is (frame grad f) . B . (frame grad g) and
``hamiltonian_frame_flow`` is B . frame grad(H).  ``test_stacked_records.py``
compares the stacked records with them.  ``span_residual`` is the
``span-containment`` measure on a whole numeric table and a whole
closed-form table, which ``certify.Span`` replaced with a fold over blocks
of nodes; ``test_certify.py`` compares the two.

``write_csv`` is the CSV writer that ``simulate`` and ``momenta`` ran in
process, one ``%`` per row of Python floats, before a forked writer came to
format blocks of raw float64 bytes; ``test_cli.py`` compares the bytes.
"""
import functools
import itertools
import math
import random
import warnings

import numpy as np
from hypothesis import strategies as st

from nonholo import (BracketKind, ConsistencyError, DomainError, ScalarField, StateGM, eval_profile, invariants,
                     momentum_components, qp_matrix, routh_closed_form)
from nonholo import bivector_packed as package_bivector_packed, qpl_values as package_qpl_values
from nonholo import particle_rhs as package_particle_rhs, rhs as package_rhs
from nonholo.brackets import J1_COMPONENT, J2_COMPONENT, TAU1, TAU4, TAUS, _gauge_gradient
from nonholo.dynamics import COLUMNS
from nonholo.phase import relation_residual
from nonholo.particle import COLUMNS as PARTICLE_COLUMNS, COORDINATES, HAMILTONIAN, MOMENTUM
from nonholo.profile import check_gamma3
from nonholo.smallalg import columns, nan_max, stacked

#: relative step of the 5-point stencil of ``jacobi_trivector``
STENCIL_STEP = 1e-3


#: The NaN that arithmetic makes on this machine (inf - inf).  CPython's
#: specialized float operations (3.11+) take the operands of a*b and a+b in
#: the opposite order to its generic ones, so which of two different NaNs
#: survives depends on how warm the bytecode is, not on the code.  Where every
#: NaN is this one, a bit-for-bit comparison cannot see that.
NAN = math.inf - math.inf

#: Any float, NaN being ``NAN``; signed zeros, NaN, the infinities and
#: magnitudes near overflow or underflow are drawn often.
any_float = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, NAN, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324]),
)

#: A float strategy for all the values of one example: ``any_float``, or
#: values of one scale, where rounding tells orders of operations apart.
#: Hypothesis favours short floats, whose sums are often exact, so half of
#: the latter are uniform draws with all 53 bits.
float_kinds = st.sampled_from([
    st.one_of(st.floats(-8.0, 8.0), st.integers(0, 2**32).map(lambda k: random.Random(k).uniform(-8.0, 8.0))),
    any_float,
])


def same_bits(a, b) -> bool:
    """Whether two arrays (or floats) have the same shape and the same bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_n(f, t, y, h, k1=None) -> list:
    """``rk4_step`` of any length, one list comprehension per combination: the
    generic step that the package's written-out five- and six-element steps
    reproduce bit for bit, and the step of the tests' other state lengths."""
    if k1 is None:
        k1 = f(t, y)
    half = 0.5 * h
    k2 = f(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = f(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


E3 = np.array([0.0, 0.0, 1.0])


def dot(a, b):
    """Return the dot product of two 3-vectors."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def contact_vector(ev, gamma):
    """Body-frame vector s = rho*gamma - L*e3 from center of mass to contact point."""
    check_gamma3(ev, gamma[2])
    return ev.rho * gamma - ev.L * E3


def zeta_prime(spec, g3):
    """zeta' of ``spec`` at g3, written out as ``profile_terms`` computed it
    until no package code read it: -r for a Routh body, -b*c/D^(3/2) for an
    ellipsoid."""
    if spec.kind == "routh":
        return -spec.p1
    b, c = spec.p1, spec.p2
    d = b * (1.0 - g3 * g3) + c * g3 * g3
    return -b * c / (d * math.sqrt(d))


def cross(a, b):
    """Return the cross product a x b."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def hat(v):
    """The antisymmetric 3x3 matrix with hat(v) @ w = v x w."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def omega_from_M(params, ev, x):
    x = np.asarray(x, dtype=float)
    check_gamma3(ev, x[2])
    s = ev.rho * x[:3]
    s[2] -= ev.L
    ss = dot(s, s)
    a1 = params.I1 + params.m * ss
    a = np.array([a1, a1, params.I3 + params.m * ss])  # the diagonal of A
    ainv_m = x[3:6] / a
    ainv_s = s / a
    e = 1.0 - params.m * dot(ainv_s, s)
    s_omega = dot(ainv_m, s) / e
    return ainv_m + (params.m * s_omega) * ainv_s


def energy(params, ev, x):
    x = np.asarray(x, dtype=float)
    omega = omega_from_M(params, ev, x)
    gamma = x[:3]
    gs = dot(gamma, ev.rho * gamma) - ev.L * gamma[2]
    return 0.5 * dot(x[3:6], omega) - params.m * params.grav * gs


def qpl_values(params, ev, x):
    """(c3, Q, P, L_vec, K_vec) at a packed state."""
    x = np.asarray(x, dtype=float)
    omega = omega_from_M(params, ev, x)
    gamma = x[:3]
    s = ev.rho * gamma - ev.L * E3
    c3 = cross(gamma, cross(omega, s))[2]
    og = dot(omega, gamma)
    q = params.m * (-ev.rho**2 * og + ev.rho_p * c3)
    p = params.m * (ev.L * ev.rho * og - ev.L_p * c3)
    lvec = q * gamma + p * E3
    kvec = -params.m * ev.rho * dot(gamma, s) * omega + lvec
    return float(c3), float(q), float(p), lvec, kvec


def bivector_packed(params, spec, x, kind):
    """The 6x6 bracket matrix at one packed point."""
    x = np.asarray(x, dtype=float)
    _, _, _, lvec, kvec = qpl_values(params, eval_profile(spec, x[2]), x)
    v = lvec if kind == BracketKind.GAUGED else kvec
    pi = np.zeros((6, 6))
    hg = hat(x[:3])
    pi[:3, 3:] = hg
    pi[3:, :3] = hg
    pi[3:, 3:] = hat(x[3:6] + v)
    return pi


def jacobi_trivector(pi_fn, x):
    """The Jacobi trivector by the 5-point central stencil, with one ``pi_fn``
    call per point of the stencil (``pi_fn`` maps one point to its bivector)."""
    x = np.asarray(x, dtype=float)
    dpi = np.empty((x.size, x.size, x.size))
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h = STENCIL_STEP * max(1.0, abs(x[k]))
        dpi[k] = (8.0 * (pi_fn(x + e) - pi_fn(x - e)) - (pi_fn(x + 2.0 * e) - pi_fn(x - 2.0 * e))) / (12.0 * h)
    a = np.einsum("ik,kab->iab", pi_fn(x), dpi)
    return a + a.transpose(1, 2, 0) + a.transpose(2, 0, 1)


def rhs(params, spec, x):
    x = np.asarray(x, dtype=float)
    ev = eval_profile(spec, x[2])
    gamma, M = x[:3], x[3:6]
    omega = omega_from_M(params, ev, x)
    s = ev.rho * gamma - ev.L * E3
    gd = cross(gamma, omega)
    sd = ev.rho_p * gd[2] * gamma + ev.rho * gd
    sd[2] -= ev.L_p * gd[2]
    md = cross(M, omega) + params.m * cross(sd, cross(omega, s))
    if params.grav:
        md += (params.m * params.grav) * cross(s, gamma)
    return np.concatenate([gd, md])


def integrate(params, spec, state0, cfg, momenta):
    n_steps = cfg.steps
    out = np.empty((n_steps + 1, len(COLUMNS)))
    coeffs = np.empty((n_steps + 1, 4))
    x = StateGM.from_packed(state0).packed()
    off_table = False

    def f(t, y):
        return rhs(params, spec, y)

    def record(k, x):
        """Fill row k; return whether its energy is finite."""
        nonlocal off_table
        out[k, 1:7] = x
        out[k, 12] = energy(params, eval_profile(spec, x[2]), x)
        if not np.isfinite(out[k, 12]):
            return False
        try:
            coeffs[k] = momenta.eval(x[2])
        except DomainError as exc:
            coeffs[k] = np.nan
            if not off_table:
                warnings.warn(f"{exc} at step {k} (t={k * cfg.dt:g}); the gauge momenta of such rows are NaN")
                off_table = True
        return True

    rows = n_steps + 1
    for k in range(n_steps + 1):
        if k:
            x = rk4_step(f, (k - 1) * cfg.dt, x, cfg.dt)
            if np.all(np.isfinite(x)):
                x[:3] /= np.sqrt(dot(x[:3], x[:3]))
        finite = np.all(np.isfinite(x))
        if not (finite and record(k, x)):  # the first row with a non-finite state or E
            warnings.warn(f"non-finite {'energy' if finite else 'state'} at step {k}; aborting with {k} samples")
            rows = k
            break

    out, cf = out[:rows], coeffs[:rows]
    out[:, 0] = np.arange(rows) * cfg.dt
    out[:, 7:12] = invariants(out[:, 1:7])
    j1, j2 = momentum_components(out[:, 1:7]).T
    out[:, 13:] = np.column_stack([cf[:, 0] * j1 + cf[:, 1] * j2, cf[:, 2] * j1 + cf[:, 3] * j2, j1, j2])
    return out


def particle_hamiltonian(v):
    v = np.asarray(v, dtype=float)
    return 0.5 * (v[3] ** 2 / (1.0 + v[1] ** 2) + v[4] ** 2)


def particle_momentum(v):
    v = np.asarray(v, dtype=float)
    return v[3] / math.sqrt(1.0 + v[1] ** 2)


def particle_rhs(v):
    v = np.asarray(v, dtype=float)
    y, px, py = v[1], v[3], v[4]
    c1 = px / (1.0 + y * y)
    w = y * c1
    return np.array([c1, py, y * c1, w * py, 0.0])


def particle_integrate(state0, cfg):
    n_steps = cfg.steps
    out = np.empty((n_steps + 1, len(PARTICLE_COLUMNS)))
    out[:, 0] = np.arange(n_steps + 1) * cfg.dt
    v = np.array(state0, dtype=float)

    def f(t, y):
        return particle_rhs(y)

    out[0, 1:] = (*v, particle_momentum(v), particle_hamiltonian(v))
    for k in range(1, n_steps + 1):
        v = rk4_step(f, (k - 1) * cfg.dt, v, cfg.dt)
        out[k, 1:] = (*v, particle_momentum(v), particle_hamiltonian(v))
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        fault = "energy" if np.isfinite(out[bad[0], 1:6]).all() else "state"
        warnings.warn(f"non-finite {fault} at step {bad[0]}; aborting with {bad[0]} samples")
        return out[: bad[0]]
    return out


def M_from_omega(params, ev, gamma, omega):
    """Forward map M = A*Omega - m*<s, Omega>*s."""
    s = contact_vector(ev, gamma)
    ss = dot(s, s)
    a1 = params.I1 + params.m * ss
    a3 = params.I3 + params.m * ss
    so = dot(s, omega)
    return np.array(
        [
            a1 * omega[0] - params.m * so * s[0],
            a1 * omega[1] - params.m * so * s[1],
            a3 * omega[2] - params.m * so * s[2],
        ]
    )


def frame_form(v):
    """The 4x4 constrained 2-form F of the particle in the frame (e1, e2, e3, e4),
    w = y px / (1 + y^2) its curvature coupling."""
    _, y, _, px, _ = np.asarray(v, dtype=float)
    w = y * px / (1.0 + y * y)
    return np.array(
        [
            [0.0, -w, 1.0, 0.0],
            [w, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )


def frame_bracket(v):
    """B = -F^-1, the particle's bracket matrix in the frame."""
    return -np.linalg.inv(frame_form(v))


def frame(v):
    """The 5x4 matrix E whose columns are the frame e1 = d/dx + y d/dz, e2 = d/dy,
    e3 = d/dpx, e4 = d/dpy at the packed state v."""
    e = np.zeros((5, 4))
    e[0, 0], e[2, 0], e[1, 1], e[3, 2], e[4, 3] = 1.0, v[1], 1.0, 1.0, 1.0
    return e


def frame_gradient(f, v):
    """The frame components (e1 f, e2 f, e3 f, e4 f) = E^T grad(f) at v."""
    return frame(v).T @ f.grad(v)


def _reorthonormalize(g):
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    if np.linalg.det(r) < 0:  # keep it a rotation
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def reconstruct_full(params, spec, traj, g0, a0):
    """Reconstruct attitude and contact trace from a reduced trajectory.

    Integrates g_dot = g*hat(Omega), a_dot = -g*(Omega x s) with the same
    fixed step as the reduced run (an ``integrate`` array), re-orthonormalizing
    g each step (polar projection); returns one (g, (a1, a2)) per row.  gamma
    is identified with the third row of g, so ``g0`` is a rotation whose
    third row is the initial gamma; its match with the reduced trajectory is
    the consistency test of the reconstruction.
    """
    g0 = np.asarray(g0, dtype=float)
    t, gamma0, m0 = traj[:, 0], traj[0, 1:4], traj[0, 4:7]
    dt = t[1] - t[0]
    ev0 = eval_profile(spec, gamma0[2])
    s0 = ev0.rho * gamma0 - ev0.L * E3
    a = np.array([a0[0], a0[1], -dot(gamma0, s0)])
    out = []

    def f(t, y):
        gm = y[:9].reshape(3, 3)
        m = y[12:15]
        gamma = gm[2] / np.sqrt(dot(gm[2], gm[2]))
        x = np.concatenate([gamma, m])
        ev = eval_profile(spec, gamma[2])
        omega = omega_from_M(params, ev, x)
        s = ev.rho * gamma - ev.L * E3
        gd = gm @ hat(omega)
        ad = -(gm @ cross(omega, s))
        return np.concatenate([gd.reshape(9), ad, rhs(params, spec, x)[3:6]])

    y = np.concatenate([g0.reshape(9), a, m0])
    for k, tk in enumerate(t):
        gm = y[:9].reshape(3, 3)
        out.append((gm.copy(), (float(y[9]), float(y[10]))))
        if k == len(t) - 1:
            break
        y = rk4_step(f, tk, y, dt)
        y[:9] = _reorthonormalize(y[:9].reshape(3, 3)).reshape(9)
    return out


# ---------------------------------------------------------------------------
# The per-sample check records that ``nonholo.certify`` replaced with one
# array pass over all samples, and the one-state kernels they called.  Every
# value is taken at one sample, with the ``@`` products of the per-state code.

def reduced_bivector_tau(params, spec, tau):
    """The explicit 5x5 table at one tau, with ``qp_matrix``."""
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
    return upper - upper.T


def pushforward_residual(params, spec, x):
    x = np.asarray(x, dtype=float)
    pi = package_bivector_packed(params, spec, x, BracketKind.GAUGED)
    grads = [t.grad(x) for t in TAUS]
    table = reduced_bivector_tau(params, spec, invariants(x))
    return nan_max(np.array([abs(float(grads[a] @ pi @ grads[b]) - table[a, b])
                             for a in range(5) for b in range(a + 1, 5)]))


#: The gradients of tau1..tau5, j1 and j2 written by hand on the state columns
#: c, before every ScalarField gradient became a jet pass
STATE_GRADIENTS = {
    "tau1": lambda c: (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    "tau2": lambda c: (c[4], -c[3], 0.0, -c[1], c[0], 0.0),
    "tau3": lambda c: (c[3], c[4], 0.0, c[0], c[1], 0.0),
    "tau4": lambda c: (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    "tau5": lambda c: (0.0, 0.0, 0.0, 2.0 * c[3], 2.0 * c[4], 0.0),
    "j1": lambda c: (0.0, 0.0, 0.0, 0.0, 0.0, -1.0),
    "j2": lambda c: (c[3], c[4], c[5], c[0], c[1], c[2]),
}


def state_gradient(name, x):
    """The hand-written gradient of field ``name`` at a packed state, or its
    (m, 6) rows at an (m, 6) stack."""
    c = columns(x)
    return stacked(STATE_GRADIENTS[name](c), c[0])


def gauge_momentum_fields(solution):
    """The two gauge momenta of ``solution`` as ScalarFields, their gradients
    (``brackets._gauge_gradient``) from ``solution.slope``, at a state or an
    (m, 6) stack."""

    def make(index):
        i, j = 2 * index, 2 * index + 1

        def fn(x):
            v = solution.eval(x[2])
            return v[i] * J1_COMPONENT.fn(x) + v[j] * J2_COMPONENT.fn(x)

        def grad(x):
            x = np.asarray(x, dtype=float)
            t1 = x[..., 2][()]  # a float64 at one state
            return _gauge_gradient(index, x, solution.eval(t1), solution.slope(t1))

        return ScalarField(fn, grad, name=f"J{index + 1}")

    return make(0), make(1)


def casimir_residuals(params, spec, x, momenta):
    """(max_j1, max_j2, involution, vertical1, vertical2) at one state."""
    x = np.asarray(x, dtype=float)
    pi = package_bivector_packed(params, spec, x, BracketKind.GAUGED)
    gen = np.array([-x[1], x[0], 0.0, -x[4], x[3], 0.0])
    grads = [jf.grad(x) for jf in gauge_momentum_fields(momenta)]
    pairs = momenta.eval(x[2])
    out, verts = [], []
    for idx, gj in enumerate(grads):
        flow = pi @ gj
        out.append(nan_max(np.array([abs(float(t.grad(x) @ flow)) for t in TAUS])))
        verts.append(float(np.max(np.abs(flow - pairs[2 * idx] * gen))))
    return out[0], out[1], abs(float(grads[0] @ pi @ grads[1])), verts[0], verts[1]


def a1_gs(params, ev, gamma):
    """A1 = I1 + m*<s, s> and <gamma, s>, from the 3-vector s of ``contact_vector``."""
    s = contact_vector(ev, gamma)
    return params.I1 + params.m * dot(s, s), dot(gamma, s)


def nonconservation_rates(params, spec, x):
    """(dj1, dj2, pred1, pred2) at one state."""
    x = np.asarray(x, dtype=float)
    gamma, M = x[:3], x[3:6]
    xd = package_rhs(params, spec, x)
    dj1 = -xd[5]
    dj2 = dot(xd[:3], M) + dot(gamma, xd[3:6])
    ev = eval_profile(spec, x[2])
    vals = package_qpl_values(params, ev, x)
    a1, _ = a1_gs(params, ev, gamma)
    t2 = gamma[0] * M[1] - gamma[1] * M[0]
    return float(dj1), float(dj2), -vals.Q * t2 / a1, -vals.P * t2 / a1


def particle_bracket(f, g, v):
    v = np.asarray(v, dtype=float)
    return float(frame_gradient(f, v) @ frame_bracket(v) @ frame_gradient(g, v))


def hamiltonian_frame_flow(v):
    v = np.asarray(v, dtype=float)
    return frame_bracket(v) @ frame_gradient(HAMILTONIAN, v)


class Sample:
    """One state of a ``certify.Solid`` (row ``index`` of its jets) and what
    several records read at it."""

    def __init__(self, solid, index):
        self.solid, self.index, self.x = solid, index, solid.x[index]
        self.ev = eval_profile(solid.spec, self.x[2])
        self.inv = invariants(self.x).tolist()
        self.vals = package_qpl_values(solid.params, self.ev, self.x)

    @functools.cached_property
    def casimir(self):
        s = self.solid
        return casimir_residuals(s.params, s.spec, self.x, s.momenta)


def _qp_linearity(s, p):
    (t1, _, t3, t4, _), vals = p.inv, p.vals
    qp = qp_matrix(s.params, s.spec, t1)
    den = max(abs(vals.Q), abs(vals.P), 1e-3)
    return nan_max(np.array([abs(qp[0, 0] * t3 + qp[0, 1] * t4 - vals.Q) / den,
                             abs(qp[1, 0] * t3 + qp[1, 1] * t4 - vals.P) / den]))


def _jacobi_gauged(s, p):
    d, t = np.array([tau.grad(p.x) for tau in TAUS]), s.jets.trivectors[0][p.index]
    jac = np.einsum("iab,pi,qa,rb->pqr", t, d, d, d)
    return nan_max(np.array([abs(float(jac[a, b, c])) for a, b, c in itertools.combinations(range(5), 3)]))


def _jacobi_ungauged(s, p):
    grads = (f.grad(p.x) for f in (TAU1, J2_COMPONENT, TAU4))
    jac = float(np.einsum("iab,i,a,b->", s.jets.trivectors[1][p.index], *grads))
    a1, gs = a1_gs(s.params, p.ev, p.x[:3])
    closed = -s.params.m * p.ev.rho * gs * (1.0 - p.inv[0]**2) / a1
    return abs(jac - closed) / abs(closed)


def _rate_law(s, p):
    dj1, dj2, pred1, pred2 = nonconservation_rates(s.params, s.spec, p.x)
    scale = max(abs(pred1), abs(pred2), 1e-6)
    return nan_max(np.array([abs(dj1 - pred1) / scale, abs(dj2 - pred2) / scale]))


def _consistency(s, p):
    xd = package_rhs(s.params, s.spec, p.x)
    dh = s.jets.dh[p.index]
    return nan_max(np.array([float(np.max(np.abs(xd - pis[p.index] @ dh))) for pis in s.jets.pis]))


#: The per-sample measure of each per-sample solid record, at (solid, sample)
SOLID_MEASURES = {
    "qp-linearity": _qp_linearity,
    "jacobi-gauged": _jacobi_gauged,
    "jacobi-ungauged-closed-form": _jacobi_ungauged,
    "casimir-J1": lambda s, p: p.casimir[0],
    "casimir-J2": lambda s, p: p.casimir[1],
    "involution": lambda s, p: p.casimir[2],
    "vertical-generator": lambda s, p: nan_max(np.array(p.casimir[3:])),
    "pushforward-table": lambda s, p: pushforward_residual(s.params, s.spec, p.x),
    "rate-law": _rate_law,
    "relation-residual": lambda s, p: abs(relation_residual(*p.inv[:3], p.inv[4])),
    "bracket-dynamics-consistency": _consistency,
    "chaplygin-P-zero": lambda s, p: abs(p.vals.P),
}

_COORDS = (COORDINATES[1], COORDINATES[3], COORDINATES[4])  # y, px, py


def _rhs_anchor(s, v):
    c = hamiltonian_frame_flow(v)
    coord_rate = np.array([c[0], c[1], v[1] * c[0], c[2], c[3]])
    return float(np.max(np.abs(coord_rate - package_particle_rhs(v))))


#: The per-sample measure of each per-sample particle record, at (particle, index)
PARTICLE_MEASURES = {
    "reduced-jacobi": lambda s, k: abs(float(s.trivectors[k][1, 3, 4])),
    "jacobi-negative-control": lambda s, k: abs(float(s.trivectors[k][0, 3, 4])),
    "jacobi-unreduced-closed-form":
        lambda s, k: abs(float(s.trivectors[k][0, 3, 4]) - s.v[k][1] / (1.0 + s.v[k][1] ** 2)),
    "casimir-momentum": lambda s, k: nan_max(np.array([abs(particle_bracket(MOMENTUM, f, s.v[k])) for f in _COORDS])),
    "rhs-anchor": lambda s, k: _rhs_anchor(s, s.v[k]),
}


def span_residual(params, spec, numeric, closed) -> float:
    """Worst deviation of the Routh closed-form pairs from the numeric span,
    on whole tables: what ``span-containment`` measured before it folded
    ``certify.Span`` over the march.

    ``closed`` holds the closed-form pairs (f1, g1, f2, g2) at the nodes of
    ``numeric.grid``, one row each; the numeric pairs are combined as the
    closed forms are at tau1 = 0, where the numeric basis is normalized.
    """
    p, worst = numeric.pairs, []
    for k, (c0, c1) in enumerate(routh_closed_form(params, spec.p1, spec.p2, 0.0)):
        for j in (0, 1):  # f, then g; one column at a time keeps the temporaries small
            worst.append(nan_max(np.abs(c0 * p[:, j] + c1 * p[:, j + 2] - closed[:, 2 * k + j])))
    return nan_max(np.array(worst))


def per_sample(name, subject) -> np.ndarray:
    """The values of the per-sample record ``name`` at each sample of a
    ``certify.Solid`` or ``certify.Particle``, one sample at a time."""
    if name in PARTICLE_MEASURES:
        return np.array([PARTICLE_MEASURES[name](subject, k) for k in range(len(subject.v))])
    return np.array([SOLID_MEASURES[name](subject, Sample(subject, k)) for k in range(len(subject.x))])


# ---------------------------------------------------------------------------
# the CSV writer


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` (an iterable of float sequences) as CSV,
    each float with 17 significant digits (``nan``, ``inf`` and ``-0`` as such)."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))
