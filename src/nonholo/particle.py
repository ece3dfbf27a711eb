"""A nonholonomic particle: closed-form benchmark for the bracket machinery.

A unit-mass particle in R^3 with the nonintegrable constraint zdot = y*xdot,
H = (px^2/(1+y^2) + py^2)/2 after eliminating pz.  The constrained dynamics

    xdot = px/(1+y^2), ydot = py, zdot = y*xdot,
    pxdot = w*py, pydot = 0,            w = y*px/(1+y^2)

conserves H and J = px/sqrt(1+y^2).  In the adapted frame of vector fields
e1 = d/dx + y d/dz, e2 = d/dy, e3 = d/dpx, e4 = d/dpy (e1 is tangent to the
constraint) the constrained 2-form has the matrix (rows/cols e1..e4)

    [  0  -w   1   0 ]
    [  w   0   0   1 ]
    [ -1   0   0   0 ]
    [  0  -1   0   0 ]

and the bracket matrix is minus its inverse, in closed form

    B = [[0, I], [-I, -A(w)]],      A(w) = [[0, -w], [w, 0]].

The w entry is the constraint curvature coupling: it carries the
pxdot = w*py force, and on triples that keep the unreduced x it makes the
bracket fail Jacobi (the (x, px, py) Jacobiator is y/(1+y^2) on the nose;
particle_jacobiator_unreduced measures it).  The reduction by the (x, z)-translations leaves (y, px, py), where
the bracket is genuinely Poisson and J is a Casimir.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .smallalg import grad_fd, rk4_step

OUTER_SCALE = 1e-4  # nested-bracket FD step (matches the solids convention)


@dataclass
class ParticleState:
    x: float
    y: float
    z: float
    px: float
    py: float

    def packed(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.px, self.py], dtype=float)


def _coerce(state) -> np.ndarray:
    return state.packed() if isinstance(state, ParticleState) else np.asarray(state, dtype=float)


def particle_hamiltonian(state) -> float:
    """H = (px^2/(1+y^2) + py^2)/2."""
    v = _coerce(state)
    return 0.5 * (v[3] ** 2 / (1.0 + v[1] ** 2) + v[4] ** 2)


def particle_rhs(state) -> np.ndarray:
    """(xdot, ydot, zdot, pxdot, pydot) of the constrained dynamics."""
    v = _coerce(state)
    y, px, py = v[1], v[3], v[4]
    c1 = px / (1.0 + y * y)
    w = y * c1
    return np.array([c1, py, y * c1, w * py, 0.0])


def _coupling(v: np.ndarray, include_coupling: bool) -> float:
    """w = y*px/(1+y^2), or 0 when the coupling is switched off."""
    return v[1] * v[3] / (1.0 + v[1] ** 2) if include_coupling else 0.0


def frame_form(state, include_coupling: bool = True) -> np.ndarray:
    """The 4x4 constrained 2-form in the frame (e1, e2, e3, e4).

    ``include_coupling=False`` zeroes the w = y*px/(1+y^2) entry — a
    diagnostic: the resulting flow loses the pxdot = w*py force, stops
    matching particle_rhs, and no longer conserves J.
    """
    w = _coupling(_coerce(state), include_coupling)
    return np.array(
        [
            [0.0, -w, 1.0, 0.0],
            [w, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )


def _bracket_matrix(v: np.ndarray, include_coupling: bool) -> np.ndarray:
    """B = -frame_form^-1 = [[0, I], [-I, -A(w)]] (see the module docstring)."""
    w = _coupling(v, include_coupling)
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, w],
            [0.0, -1.0, -w, 0.0],
        ]
    )


def _frame_gradient(f: Callable[[np.ndarray], float], v: np.ndarray, scale: float) -> np.ndarray:
    g = grad_fd(f, v, scale)
    return np.array([g[0] + v[1] * g[2], g[1], g[3], g[4]])


def particle_bracket(f, g, state, include_coupling: bool = True, scale: float = 1e-5) -> float:
    """{f, g} for scalar functions of the packed 5-vector.

    Built as (frame grad f)^T B (frame grad g) with B = -(frame form)^-1;
    the overall sign is the one that makes B . frame-grad(H) reproduce
    particle_rhs (the convention anchor, tested first).
    """
    v = _coerce(state)
    b = _bracket_matrix(v, include_coupling)
    return float(_frame_gradient(f, v, scale) @ b @ _frame_gradient(g, v, scale))


def particle_momentum(state) -> float:
    """J = px / sqrt(1 + y^2)."""
    v = _coerce(state)
    return v[3] / math.sqrt(1.0 + v[1] ** 2)


def hamiltonian_frame_flow(state, include_coupling: bool = True) -> np.ndarray:
    """Frame coefficients of the bracket-hamiltonian flow B . frame-grad(H).

    Coordinate velocities follow as (c1, c2, y*c1, c3, c4); equality with
    particle_rhs is the sign anchor for the whole particle module.
    """
    v = _coerce(state)
    b = _bracket_matrix(v, include_coupling)
    return b @ _frame_gradient(particle_hamiltonian, v, 1e-5)


def _jacobiator(v: np.ndarray, fields) -> float:
    bm = _bracket_matrix(v, include_coupling=True)
    total = 0.0
    for i in range(3):
        a = fields[i]
        b, c = fields[(i + 1) % 3], fields[(i + 2) % 3]

        def inner(u, b=b, c=c):
            return particle_bracket(b, c, u)

        gi = _frame_gradient(inner, v, OUTER_SCALE)
        total += float(_frame_gradient(a, v, 1e-5) @ bm @ gi)
    return total


def particle_jacobiator_reduced(state) -> float:
    """|cyclic Jacobiator| on the reduced coordinate triple (y, px, py)."""
    v = _coerce(state)
    return abs(_jacobiator(v, [lambda u: u[1], lambda u: u[3], lambda u: u[4]]))


def particle_jacobiator_unreduced(state) -> float:
    """Signed cyclic Jacobiator on (x, px, py); equals y/(1+y^2).

    x does not survive the translation reduction, and on triples that keep
    it the bracket genuinely fails Jacobi — the negative control showing
    the vanishing reduced-triple Jacobiator is not vacuous.
    """
    v = _coerce(state)
    return _jacobiator(v, [lambda u: u[0], lambda u: u[3], lambda u: u[4]])


#: The columns of a particle trajectory array, which are also the ``simulate`` CSV header.
COLUMNS = ("t", "x", "y", "z", "px", "py", "J", "E")


def particle_integrate(state0: ParticleState, cfg) -> np.ndarray:
    """Fixed-step RK4 run of the particle; one row per step, t=0 included.

    Returns a float array whose columns are ``COLUMNS``; J and E are the
    scalar kernels ``particle_momentum`` and ``particle_hamiltonian`` at each
    row's state.
    """
    n_steps = cfg.steps
    out = np.empty((n_steps + 1, len(COLUMNS)))
    out[:, 0] = np.arange(n_steps + 1) * cfg.dt
    v = state0.packed()

    def f(t, y):
        return particle_rhs(y)

    out[0, 1:] = (*v, particle_momentum(v), particle_hamiltonian(v))
    for k in range(1, n_steps + 1):
        v = rk4_step(f, (k - 1) * cfg.dt, v, cfg.dt)
        out[k, 1:] = (*v, particle_momentum(v), particle_hamiltonian(v))
    return out
