"""Equations of motion, the fixed-step integrator, and drift accounting.

The reduced equations on (gamma, M) are

    gamma_dot = gamma x Omega
    M_dot     = M x Omega + m * s_dot x (Omega x s) + m*grav * (s x gamma)
    s_dot     = rho' * gamma_dot_3 * gamma + rho * gamma_dot - L' * gamma_dot_3 * e3

(s_dot is the chain rule applied to s = rho(gamma3)*gamma - L(gamma3)*e3).
This derived form conserves the energy and both gauge momenta exactly along
exact flows; it is also consistent with both bracket kinds:
xdot = Pi grad(H), a standing 1e-8 test.

Conservation identities hold only on the unit sphere, so the integrator
renormalizes gamma after every step by default; switching renormalization
off is supported for the drift diagnostics (|gamma|-1 then stays < 1e-6
over the standard runs instead of < 1e-9).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError
from .geomforms import qpl_values
from .momenta import MomentaSolution, closed_form_momenta, solve_momenta
from .phase import BodyParams, StateGM, energy, invariants, momentum_components, omega_from_M, relation_residual
from .profile import ProfileSpec, eval_profile, profile_scalars
from .smallalg import E3, cross, dot, hat, rk4_step


#: Largest t_final/dt accepted; a trajectory is preallocated as one array.
MAX_STEPS = 10_000_000

#: The columns of a trajectory array, which are also the ``simulate`` CSV header.
COLUMNS = ("t", "g1", "g2", "g3", "M1", "M2", "M3", "tau1", "tau2", "tau3", "tau4", "tau5",
           "E", "J1", "J2", "j1", "j2")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration."""

    dt: float
    t_final: float
    renormalize_gamma: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt={self.dt!r} must be finite and > 0")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ValueError(f"t_final={self.t_final!r} must be finite and >= dt")
        if self.t_final / self.dt > MAX_STEPS:  # an overflowing quotient is inf
            raise ValueError(f"t_final/dt = {self.t_final / self.dt:g} exceeds {MAX_STEPS} steps")

    @property
    def steps(self) -> int:
        """Number of fixed steps from 0 to t_final."""
        return int(round(self.t_final / self.dt))


def rhs(params: BodyParams, spec: ProfileSpec, x) -> np.ndarray:
    """The vector field (gamma_dot, M_dot) at a packed state, as a 6-vector."""
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


_rhs_packed = rhs  # the name bench/kernels.py imports


@lru_cache(maxsize=8)
def default_momenta(params: BodyParams, spec: ProfileSpec) -> MomentaSolution:
    """Momenta solution used when integrate() is not handed one explicitly.

    Routh profiles get the exact closed forms; anything else a numeric
    solve at the default grid.  Cached per (params, spec).
    """
    if spec.kind == "routh":
        return closed_form_momenta(params, spec)
    return solve_momenta(params, spec)


def integrate(
    params: BodyParams,
    spec: ProfileSpec,
    state0: np.ndarray,
    cfg: IntegratorConfig,
    momenta: MomentaSolution | None = None,
) -> np.ndarray:
    """Integrate the reduced equations from the packed state ``state0``; one
    row per step, t=0 included.

    Returns a float array whose columns are ``COLUMNS``.  gamma is
    renormalized to the unit sphere after every accepted step
    (cfg.renormalize_gamma).  A non-finite state aborts the run with a
    warning, returning the rows completed so far.  Approaching the
    singular strata |gamma3| -> 1 warns once (tabulated momenta only; the
    closed forms are pole-safe); gauge-momentum values outside a tabulated
    grid degrade to NaN rather than aborting.

    Per step only the state, E and the momenta coefficients are computed;
    the invariant and momentum columns are filled afterwards by
    ``invariants`` and ``momentum_components`` on the whole state block.

    Raises:
        ValueError: if ``state0`` is not a state: not six numbers, |gamma|
            not 1 within 1e-6, or M not finite (``StateGM``'s checks).
    """
    if momenta is None:
        momenta = default_momenta(params, spec)
    n_steps = cfg.steps
    out = np.empty((n_steps + 1, len(COLUMNS)))
    coeffs = np.empty((n_steps + 1, 4))  # (f1, g1, f2, g2) per row
    x = StateGM.from_packed(state0).packed()
    warned_pole = False

    def f(t, y):
        return rhs(params, spec, y)

    def record(k, x):
        out[k, 1:7] = x
        out[k, 12] = energy(params, eval_profile(spec, x[2]), x)  # E
        try:
            coeffs[k] = momenta.eval(x[2])
        except DomainError:  # outside the momenta grid: keep going, flag with NaN
            coeffs[k] = np.nan

    record(0, x)
    rows = n_steps + 1
    for k in range(1, n_steps + 1):
        x = rk4_step(f, (k - 1) * cfg.dt, x, cfg.dt)
        if not np.all(np.isfinite(x)):
            warnings.warn(f"non-finite state at step {k}; aborting with {k} samples")
            rows = k
            break
        if cfg.renormalize_gamma:
            x[:3] /= np.sqrt(dot(x[:3], x[:3]))
        if not warned_pole and not momenta.routh_exact and abs(x[2]) > 1.0 - momenta.delta:
            warnings.warn(f"|gamma3| exceeded 1 - {momenta.delta:g} at t={k * cfg.dt:g}")
            warned_pole = True
        record(k, x)

    out, cf = out[:rows], coeffs[:rows]
    out[:, 0] = np.arange(rows) * cfg.dt
    out[:, 7:12] = invariants(out[:, 1:7])
    j1, j2 = momentum_components(out[:, 1:7]).T
    out[:, 13:] = np.column_stack([cf[:, 0] * j1 + cf[:, 1] * j2, cf[:, 2] * j1 + cf[:, 3] * j2, j1, j2])
    return out


def drift(column: np.ndarray) -> float:
    """Largest change of a trajectory column from its first value (NaN if any is NaN)."""
    return float(np.max(np.abs(column - column[0])))


@dataclass(frozen=True)
class RateLaw:
    """Chain-rule momentum rates against their closed-form predictions."""

    dj1: float
    dj2: float
    pred1: float
    pred2: float


def nonconservation_rates(params: BodyParams, spec: ProfileSpec, x) -> RateLaw:
    """dj_i/dt along the dynamics vs. the predictions -Q*tau2/A1, -P*tau2/A1.

    The rates follow by the chain rule from the equations of motion; the
    predictions are the bracket-side computation.  Their agreement (1e-9
    relative, a standing test) certifies that j1, j2 fail to be conserved
    by exactly the computable defect.
    """
    x = np.asarray(x, dtype=float)
    gamma, M = x[:3], x[3:6]
    xd = rhs(params, spec, x)
    dj1 = -xd[5]
    dj2 = dot(xd[:3], M) + dot(gamma, xd[3:6])
    ev = eval_profile(spec, x[2])
    vals = qpl_values(params, ev, x)
    sc = profile_scalars(params, ev, gamma)
    t2 = gamma[0] * M[1] - gamma[1] * M[0]
    return RateLaw(float(dj1), float(dj2), -vals.Q * t2 / sc.A1, -vals.P * t2 / sc.A1)


def _reorthonormalize(g: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(g)
    r = u @ vt
    if np.linalg.det(r) < 0:  # keep it a rotation
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def reconstruct_full(
    params: BodyParams,
    spec: ProfileSpec,
    traj: np.ndarray,
    g0: np.ndarray,
    a0: tuple[float, float],
) -> list[tuple[np.ndarray, tuple[float, float]]]:
    """Reconstruct attitude and contact trace from a reduced trajectory.

    Integrates g_dot = g*hat(Omega), a_dot = -g*(Omega x s) with the same
    fixed step as the reduced run (an ``integrate`` array), re-orthonormalizing
    g each step (polar projection).  gamma is identified with the third row
    of g; its match with the reduced trajectory (< 1e-6 over the standard
    runs) is the consistency test of the reconstruction.

    Raises:
        ConsistencyError: if g0 is not a rotation within 1e-8 or its third
            row differs from the initial gamma by more than 1e-8.
    """
    g0 = np.asarray(g0, dtype=float)
    if np.max(np.abs(g0.T @ g0 - np.eye(3))) > 1e-8 or np.linalg.det(g0) < 0:
        raise ConsistencyError("g0 is not a rotation matrix (1e-8 tolerance)")
    t, gamma0, m0 = traj[:, 0], traj[0, 1:4], traj[0, 4:7]
    if np.max(np.abs(g0[2] - gamma0)) > 1e-8:
        raise ConsistencyError("third row of g0 does not match the initial gamma")
    dt = t[1] - t[0]
    g = g0.copy()
    ev0 = eval_profile(spec, gamma0[2])
    s0 = ev0.rho * gamma0 - ev0.L * E3
    a = np.array([a0[0], a0[1], -dot(gamma0, s0)])

    out: list[tuple[np.ndarray, tuple[float, float]]] = []

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

    y = np.concatenate([g.reshape(9), a, m0])
    for k, tk in enumerate(t):
        gm = y[:9].reshape(3, 3)
        out.append((gm.copy(), (float(y[9]), float(y[10]))))
        if k == len(t) - 1:
            break
        y = rk4_step(f, tk, y, dt)
        gm = _reorthonormalize(y[:9].reshape(3, 3))
        y[:9] = gm.reshape(9)
    return out


def drift_report(traj: np.ndarray) -> dict:
    """Max absolute drifts of E, J1, J2 and the invariant-relation residual.

    NaN gauge-momentum samples (a trajectory that left the tabulated grid)
    make dJ1/dJ2 NaN; an off-grid run is never reported as clean.
    """
    col = dict(zip(COLUMNS, traj.T))
    rel = [relation_residual(t1, t2, t3, t5) for t1, t2, t3, _, t5 in traj[:, 7:12].tolist()]
    return {
        "dE": drift(col["E"]),
        "dJ1": drift(col["J1"]),
        "dJ2": drift(col["J2"]),
        "dRel": float(np.max(np.abs(rel))),
    }
