"""The per-state numpy bodies that the package replaced, kept as bit-for-bit oracles.

``integrate``, ``particle_integrate`` and the kernels below are the
3-vector numpy formulations that the package ran before its integrators
stepped on Python floats: one ``rk4_step`` of arrays per step, ``rhs`` built
from ``cross`` calls, ``omega_from_M`` and ``energy`` on arrays, the
particle's J and E taken from numpy scalars, and one ``momenta.eval`` per
trajectory row.  ``qpl_values``, ``bivector_packed`` and
``jacobi_trivector`` are the one-state-at-a-time bracket bodies that the
stacked bracket matrices replaced: the trivector builds the bivector of each
stencil point with its own call.  The package must reproduce them to the
bit; ``test_float_stepper.py`` and ``test_stacked_brackets.py`` compare
``.view(np.int64)``.  ``same_bits`` and the float strategies below serve
every such comparison.

The last bodies are partners that only tests ever called, kept here as
independent references rather than package code: ``cross``, ``hat``,
``M_from_omega`` (the forward map of the ``omega_from_M`` round trip),
``frame_form`` (the 2-form whose negative inverse is the particle's bracket
matrix) and ``reconstruct_full`` (the attitude and contact trace that
cross-check ``integrate``'s gamma column).
"""
import math
import random
import warnings

import numpy as np
from hypothesis import strategies as st

from nonholo import BracketKind, DomainError, StateGM, eval_profile, invariants, momentum_components
from nonholo.dynamics import COLUMNS
from nonholo.particle import COLUMNS as PARTICLE_COLUMNS, _coupling
from nonholo.profile import check_gamma3, contact_vector
from nonholo.smallalg import E3, TRIVECTOR_STEP, dot


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
    """The Jacobi trivector with one ``pi_fn`` call per point of the stencil
    (``pi_fn`` maps one point to its bivector)."""
    x = np.asarray(x, dtype=float)
    dpi = np.empty((x.size, x.size, x.size))
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h = TRIVECTOR_STEP * max(1.0, abs(x[k]))
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
        nonlocal off_table
        out[k, 1:7] = x
        out[k, 12] = energy(params, eval_profile(spec, x[2]), x)
        try:
            coeffs[k] = momenta.eval(x[2])
        except DomainError as exc:
            coeffs[k] = np.nan
            if not off_table:
                warnings.warn(f"{exc} at step {k} (t={k * cfg.dt:g}); the gauge momenta of such rows are NaN")
                off_table = True

    record(0, x)
    rows = n_steps + 1
    for k in range(1, n_steps + 1):
        x = rk4_step(f, (k - 1) * cfg.dt, x, cfg.dt)
        if not np.all(np.isfinite(x)):
            warnings.warn(f"non-finite state at step {k}; aborting with {k} samples")
            rows = k
            break
        x[:3] /= np.sqrt(dot(x[:3], x[:3]))
        record(k, x)

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
        warnings.warn(f"non-finite state at step {bad[0]}; aborting with {bad[0]} samples")
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
    """The 4x4 constrained 2-form of the particle in the frame (e1, e2, e3, e4)."""
    w = _coupling(np.asarray(v, dtype=float))
    return np.array(
        [
            [0.0, -w, 1.0, 0.0],
            [w, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )


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
