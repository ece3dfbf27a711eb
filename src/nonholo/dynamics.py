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
renormalizes gamma after every step.

``integrate`` steps on Python floats.  The state is a list of six floats
stepped by ``smallalg.rk4_step``, which takes its written-out six-element
step: every stage combination component by component, with no per-element
loop.  A stage is the band check ``profile.check_domain``,
``profile_terms``, ``phase.omega_floats`` and ``field_floats``; the energy
column is ``phase.energy_floats``.  ``rhs``, ``omega_from_M`` and ``energy``
are thin array wrappers over the same bodies.  Every element sees the IEEE
operations of the 3-vector numpy formulation in their order (the products
of s by the zeros of e3 included, which fix the signs of zero components),
so the bits are those of stepping ``rhs`` with the array formula of RK4, at
about a tenth of the cost per step.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geomforms import gauge_columns
from .momenta import MomentaSolution
from .phase import BodyParams, StateGM, energy_floats, invariants, momentum_components, omega_floats, relation_residual
from .profile import ProfileSpec, check_domain, mass_scalars, profile_terms, state_terms
from .smallalg import rk4_step, stacked


#: Largest t_final/dt accepted.  A run holds one block of rows whatever
#: its length, so this bounds its time, not its memory.
MAX_STEPS = 10_000_000
#: Rows per block of a trajectory: a run steps into one buffer of this many
#: rows, reused for every block, fills its derived columns and hands it to
#: the ``sink`` a block at a time.
BLOCK_ROWS = 1024

#: The columns of a trajectory's rows, which are also the ``simulate`` CSV header.
COLUMNS = ("t", "g1", "g2", "g3", "M1", "M2", "M3", "tau1", "tau2", "tau3", "tau4", "tau5",
           "E", "J1", "J2", "j1", "j2")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration."""

    dt: float
    t_final: float

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
    """The vector field (gamma_dot, M_dot) at a packed state, as a 6-vector, or
    its (m, 6) rows at an (m, 6) stack (``field_floats`` at the profile and
    Omega of each state: on floats at a point, elementwise on a stack's
    columns, with the same bits)."""
    fields, cols, _ = _field_columns(params, spec, x)
    return stacked(fields, cols[0])


def _field_columns(params: BodyParams, spec: ProfileSpec, x) -> tuple:
    """``field_floats`` at the state columns of x, and the columns and profile
    terms (``profile.state_terms``) it was evaluated at."""
    cols, terms = state_terms(spec, x)
    rho, _, L, rho_p, L_p = terms
    return field_floats(params, rho, L, rho_p, L_p, *cols, *omega_floats(params, rho, L, *cols)), cols, terms


_rhs_packed = rhs  # the name bench/kernels.py imports


def field_floats(params: BodyParams, rho, L, rho_p, L_p, g1, g2, g3, m1, m2, m3, w1, w2, w3) -> tuple:
    """(gamma_dot, M_dot) at the state (g1, g2, g3, M1, M2, M3) whose Omega is
    (w1, w2, w3), on floats: the one body of the vector field.

    s = rho*gamma - L*e3 keeps its products by the zeros of e3, which fix the
    signs of its zero components.
    """
    z = L * 0.0
    s1, s2, s3 = rho * g1 - z, rho * g2 - z, rho * g3 - L
    gd1 = g2 * w3 - g3 * w2  # gamma x Omega
    gd2 = g3 * w1 - g1 * w3
    gd3 = g1 * w2 - g2 * w1
    c = rho_p * gd3  # s_dot = rho' gd3 gamma + rho gd - L' gd3 e3
    sd1 = c * g1 + rho * gd1
    sd2 = c * g2 + rho * gd2
    sd3 = c * g3 + rho * gd3 - L_p * gd3
    o1 = w2 * s3 - w3 * s2  # Omega x s
    o2 = w3 * s1 - w1 * s3
    o3 = w1 * s2 - w2 * s1
    m = params.m
    md1 = (m2 * w3 - m3 * w2) + m * (sd2 * o3 - sd3 * o2)  # M x Omega + m s_dot x (Omega x s)
    md2 = (m3 * w1 - m1 * w3) + m * (sd3 * o1 - sd1 * o3)
    md3 = (m1 * w2 - m2 * w1) + m * (sd1 * o2 - sd2 * o1)
    if params.grav:
        mg = m * params.grav  # + m grav s x gamma
        md1 += mg * (s2 * g3 - s3 * g2)
        md2 += mg * (s3 * g1 - s1 * g3)
        md3 += mg * (s1 * g2 - s2 * g1)
    return gd1, gd2, gd3, md1, md2, md3


def integrate(
    params: BodyParams,
    spec: ProfileSpec,
    state0: np.ndarray,
    cfg: IntegratorConfig,
    momenta: MomentaSolution,
    *,
    sink,
) -> Streamed:
    """Integrate the reduced equations from the packed state ``state0``: one
    row per step, t=0 included, whose columns are ``COLUMNS``, stepped into
    one buffer of ``BLOCK_ROWS`` rows reused for every block, so memory does
    not grow with the step count.  ``sink`` gets each finished block, every
    column filled, the last partial one included, as soon as it is
    (``simulate`` writes the CSV from it while the next is stepped); a block
    is valid only during the call.  Returns the run's ``Streamed`` record.

    gamma is renormalized to the unit sphere after every accepted step.  The
    run stops at the first row whose state or energy is not finite (an E
    that overflows at a finite state included), with a warning that names
    which, and ends with the rows before it; nothing past that row is
    stepped.  ``momenta`` answers on all of [-1, 1] (series or closed forms),
    so every row the band check lets through has its gauge momenta.

    The state is a list of six Python floats stepped by ``rk4_step`` (its
    written-out six-element step); every stage checks the profile band and
    evaluates ``profile_terms``, ``omega_floats`` and ``field_floats``.  The
    Omega of each accepted state gives both its E and the next step's first
    stage.  Per step only the state and E are computed; the t, invariant,
    momentum and gauge-momentum columns are filled a block at a time, by
    ``invariants``, ``momentum_components`` and one ``momenta.eval`` on the
    block (elementwise, so the bits are those of one pass over all rows).

    Raises:
        ValueError: if ``state0`` is not a state: not six numbers, |gamma|
            not 1 within 1e-6, or M not finite (``StateGM``'s checks).
        DomainError: if a stage has |gamma3| > 1 + 1e-9 (``profile.check_domain``).
    """
    n_steps = cfg.steps
    streamed = Streamed(drift_report, sink)
    out = np.empty((BLOCK_ROWS, len(COLUMNS)))
    x = StateGM.from_packed(state0).packed().tolist()
    dt, isfinite, sqrt = cfg.dt, math.isfinite, math.sqrt

    # The components are named, not star-unpacked: a call with positional
    # arguments is cheaper than one through an unpacked sequence.
    def f(t, y):
        g1, g2, g3, m1, m2, m3 = y
        check_domain(g3)
        rho, _, L, rho_p, L_p = profile_terms(spec, g3)
        w1, w2, w3 = omega_floats(params, rho, L, g1, g2, g3, m1, m2, m3)
        return field_floats(params, rho, L, rho_p, L_p, g1, g2, g3, m1, m2, m3, w1, w2, w3)

    def record(k, x):
        """Fill row k's state and E; return E and the field at x (the next
        step's first stage)."""
        g1, g2, g3, m1, m2, m3 = x
        check_domain(g3)
        rho, _, L, rho_p, L_p = profile_terms(spec, g3)
        w1, w2, w3 = omega_floats(params, rho, L, g1, g2, g3, m1, m2, m3)
        out[k % BLOCK_ROWS, 1:7] = x
        out[k % BLOCK_ROWS, 12] = e = energy_floats(params, rho, L, g1, g2, g3, m1, m2, m3, w1, w2, w3)
        return e, field_floats(params, rho, L, rho_p, L_p, g1, g2, g3, m1, m2, m3, w1, w2, w3)

    def fill(a, b):
        """Fill the derived columns of rows a..b-1, the buffer's first b - a,
        and hand them on."""
        block = out[: b - a]
        block[:, 0] = np.arange(a, b) * dt
        block[:, 7:12] = invariants(block[:, 1:7])
        j1, j2 = momentum_components(block[:, 1:7]).T
        cf = momenta.eval(block[:, 3])
        block[:, 13:] = np.column_stack([cf[:, 0] * j1 + cf[:, 1] * j2, cf[:, 2] * j1 + cf[:, 3] * j2, j1, j2])
        streamed.add(block)

    rows, fault = 0, "state"
    try:
        for k in range(n_steps + 1):
            if k:
                x = rk4_step(f, (k - 1) * dt, x, dt, xd)
                if not all(map(isfinite, x)):
                    break
                n = sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
                x[0], x[1], x[2] = x[0] / n, x[1] / n, x[2] / n
            e, xd = record(k, x)
            if not isfinite(e):
                fault = "energy"
                break
            rows = k + 1
            if not rows % BLOCK_ROWS:
                fill(rows - BLOCK_ROWS, rows)
    finally:  # a stage off the band raises, after the rows done are handed on
        fill(rows - rows % BLOCK_ROWS, rows)
    if rows <= n_steps:
        warnings.warn(f"non-finite {fault} at step {rows}; aborting with {rows} samples")
    return streamed


def drift(column: np.ndarray) -> float:
    """Largest change of a trajectory column from its first value (NaN if any is NaN)."""
    return float(np.max(np.abs(column - column[0])))


class Streamed:
    """A run whose rows went to a ``sink`` (``integrate``,
    ``particle.particle_integrate``): ``len()`` is the number of rows it
    produced, and ``drifts`` the ``report`` of all of them.

    ``add`` hands each block on as the run finishes it and folds it in:
    ``report`` on the run's first row stacked on the block, the maxima
    combined by ``np.maximum``, which keeps a NaN.  Every entry of a report
    is a maximum over rows, and the first row adds only its own entries (a
    drift of 0, or NaN, which is NaN over all rows too), so the fold has the
    bits of ``report`` on the whole trajectory.
    """

    __slots__ = ("rows", "drifts", "_report", "_sink", "_first")

    def __init__(self, report, sink) -> None:
        self.rows, self.drifts, self._report, self._sink = 0, {}, report, sink

    def __len__(self) -> int:
        return self.rows

    def add(self, block: np.ndarray) -> None:
        """Hand ``block``, the run's next rows, to the sink, then count them
        and fold in their report; an empty block is neither."""
        if not len(block):
            return
        self._sink(block)
        if not self.rows:
            self._first = block[0].copy()
        part = self._report(np.vstack((self._first, block)))
        self.drifts = {key: float(np.maximum(self.drifts.get(key, value), value)) for key, value in part.items()}
        self.rows += len(block)


@dataclass(frozen=True)
class RateLaw:
    """Chain-rule momentum rates against their closed-form predictions."""

    dj1: float
    dj2: float
    pred1: float
    pred2: float


def nonconservation_rates(params: BodyParams, spec: ProfileSpec, x) -> RateLaw:
    """dj_i/dt along the dynamics vs. the predictions -Q*tau2/A1, -P*tau2/A1, at
    a packed state (floats), or at each state of an (m, 6) stack ((m,) arrays).

    The rates follow by the chain rule from the equations of motion; the
    predictions are the bracket-side computation.  Their agreement (1e-9
    relative, a standing test) certifies that j1, j2 fail to be conserved
    by exactly the computable defect.  Every quantity is elementwise, so a
    state has the same bits in a stack or alone.
    """
    x = np.asarray(x, dtype=float)
    (gd1, gd2, gd3, md1, md2, md3), cols, terms = _field_columns(params, spec, x.reshape(-1, 6))
    g1, g2, g3, m1, m2, m3 = cols
    rho, _, L, rho_p, L_p = terms
    _, q, p, *_ = gauge_columns(params, rho, L, rho_p, L_p, *cols)
    a1 = mass_scalars(params, rho, L, g1, g2, g3).A1
    t2 = g1 * m2 - g2 * m1
    rates = (-md3, (gd1 * m1 + gd2 * m2 + gd3 * m3) + (g1 * md1 + g2 * md2 + g3 * md3), -q * t2 / a1, -p * t2 / a1)
    return RateLaw(*(r if x.ndim > 1 else float(r[0]) for r in rates))


def drift_report(traj: np.ndarray) -> dict:
    """Max absolute drifts of E, J1, J2 and the invariant-relation residual.

    A NaN sample in a column makes its drift NaN; such a run is never
    reported as clean.
    """
    col = dict(zip(COLUMNS, traj.T))
    rel = relation_residual(col["tau1"], col["tau2"], col["tau3"], col["tau5"])
    return {
        "dE": drift(col["E"]),
        "dJ1": drift(col["J1"]),
        "dJ2": drift(col["J2"]),
        "dRel": float(np.max(np.abs(rel))),
    }
