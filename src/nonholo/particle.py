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

Every function reads a state as the packed 5-vector v = (x, y, z, px, py).
"""
from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .smallalg import grad_fd, jacobi_trivector, rk4_step


def particle_hamiltonian(v) -> float:
    """H = (px^2/(1+y^2) + py^2)/2 at the packed state v = (x, y, z, px, py)."""
    v = np.asarray(v, dtype=float)
    return 0.5 * (v[3] ** 2 / (1.0 + v[1] ** 2) + v[4] ** 2)


def particle_rhs(v) -> np.ndarray:
    """(xdot, ydot, zdot, pxdot, pydot) of the constrained dynamics."""
    v = np.asarray(v, dtype=float)
    y, px, py = v[1], v[3], v[4]
    c1 = px / (1.0 + y * y)
    w = y * c1
    return np.array([c1, py, y * c1, w * py, 0.0])


def _coupling(v: np.ndarray) -> float:
    """w = y*px/(1+y^2), the constraint curvature coupling."""
    return v[1] * v[3] / (1.0 + v[1] ** 2)


def frame_form(v) -> np.ndarray:
    """The 4x4 constrained 2-form in the frame (e1, e2, e3, e4)."""
    w = _coupling(np.asarray(v, dtype=float))
    return np.array(
        [
            [0.0, -w, 1.0, 0.0],
            [w, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )


def _bracket_matrix(v: np.ndarray) -> np.ndarray:
    """B = -frame_form^-1 = [[0, I], [-I, -A(w)]] (see the module docstring)."""
    w = _coupling(v)
    return np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, w],
            [0.0, -1.0, -w, 0.0],
        ]
    )


def _frame_gradient(f: Callable[[np.ndarray], float], v: np.ndarray) -> np.ndarray:
    g = grad_fd(f, v)
    return np.array([g[0] + v[1] * g[2], g[1], g[3], g[4]])


def particle_bracket(f, g, v) -> float:
    """{f, g} for scalar functions of the packed 5-vector.

    Built as (frame grad f)^T B (frame grad g) with B = -(frame form)^-1;
    the overall sign is the one that makes B . frame-grad(H) reproduce
    particle_rhs (the convention anchor, tested first).
    """
    v = np.asarray(v, dtype=float)
    return float(_frame_gradient(f, v) @ _bracket_matrix(v) @ _frame_gradient(g, v))


def particle_momentum(v) -> float:
    """J = px / sqrt(1 + y^2)."""
    v = np.asarray(v, dtype=float)
    return v[3] / math.sqrt(1.0 + v[1] ** 2)


def hamiltonian_frame_flow(v) -> np.ndarray:
    """Frame coefficients of the bracket-hamiltonian flow B . frame-grad(H).

    Coordinate velocities follow as (c1, c2, y*c1, c3, c4); equality with
    particle_rhs is the sign anchor for the whole particle module.
    """
    v = np.asarray(v, dtype=float)
    return _bracket_matrix(v) @ _frame_gradient(particle_hamiltonian, v)


def _coordinate_bivector(v: np.ndarray) -> np.ndarray:
    """E B E^T, the bracket on coordinate gradients; the columns of the 5x4 E
    are the frame e1 = d/dx + y d/dz, e2, e3, e4."""
    e = np.zeros((5, 4))
    e[0, 0], e[2, 0], e[1, 1], e[3, 2], e[4, 3] = 1.0, v[1], 1.0, 1.0, 1.0
    return e @ _bracket_matrix(v) @ e.T


def particle_jacobiator_reduced(v) -> float:
    """|cyclic Jacobiator| on the reduced coordinate triple (y, px, py)."""
    return abs(float(jacobi_trivector(_coordinate_bivector, v)[1, 3, 4]))


def particle_jacobiator_unreduced(v) -> float:
    """Signed cyclic Jacobiator on (x, px, py); equals y/(1+y^2).

    x does not survive the translation reduction, and on triples that keep
    it the bracket genuinely fails Jacobi — the negative control showing
    the vanishing reduced-triple Jacobiator is not vacuous.
    """
    return float(jacobi_trivector(_coordinate_bivector, v)[0, 3, 4])


#: The columns of a particle trajectory array, which are also the ``simulate`` CSV header.
COLUMNS = ("t", "x", "y", "z", "px", "py", "J", "E")


def particle_integrate(state0, cfg) -> np.ndarray:
    """Fixed-step RK4 run of the particle; one row per step, t=0 included.

    Returns a float array whose columns are ``COLUMNS``; J and E are the
    scalar kernels ``particle_momentum`` and ``particle_hamiltonian`` at each
    row's state.  The array ends, with a warning, before the first row with a
    non-finite state, J or E (an H that overflows at a finite state included).
    """
    n_steps = cfg.steps
    out = np.empty((n_steps + 1, len(COLUMNS)))
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
