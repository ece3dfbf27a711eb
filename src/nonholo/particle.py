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

On coordinate gradients the bracket is the 5x5 bivector P = E B E^T, the
columns of E the frame: ``particle_bivector``, with entries 1, y and w.
The bracket {f, g} = grad(f) . (P grad(g)), the flow P grad(H) and the
Jacobi trivector all contract it; the frame form and B = -F^-1 are the
tests' reference for it.

Every function reads a state as the packed 5-vector v = (x, y, z, px, py);
every gradient is a jet pass (``smallalg.Jet``) through the bodies of H, J, w.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .brackets import ScalarField, state_field
from .dynamics import BLOCK_ROWS, Streamed, drift
from .smallalg import Jet, columns, jacobi_trivector, matrix, pow2, rk4_step, stacked


def particle_hamiltonian(v) -> float:
    """H = (px^2/(1+y^2) + py^2)/2 at the packed state v = (x, y, z, px, py)."""
    _, y, _, px, py = np.asarray(v, dtype=float).tolist()
    return _hamiltonian(y, px, py)


def particle_rhs(v) -> np.ndarray:
    """(xdot, ydot, zdot, pxdot, pydot) of the constrained dynamics at a packed
    state, or their (m, 5) rows at an (m, 5) stack (``_field`` elementwise)."""
    c = columns(v)
    return stacked(_field(c), c[0])


def _hamiltonian(y: float, px: float, py: float) -> float:
    """H on floats (or jets): the one body of ``particle_hamiltonian``."""
    return 0.5 * (pow2(px) / (1.0 + pow2(y)) + pow2(py))


def _momentum(y: float, px: float) -> float:
    """J on floats (or jets): the one body of ``particle_momentum``."""
    d = 1.0 + pow2(y)
    return px / (d.sqrt() if isinstance(d, Jet) else math.sqrt(d))


def _field(v) -> tuple:
    """The vector field at the packed state v, on floats (or elementwise on the
    columns of a stack): the one body of ``particle_rhs``."""
    _, y, _, px, py = v
    c1 = px / (1.0 + y * y)
    w = y * c1
    return c1, py, y * c1, w * py, 0.0


def _coupling(v):
    """w = y*px/(1+y^2), the constraint curvature coupling, at a packed state,
    over an (m, 5) stack, or as a jet at the jet of a stack."""
    y, px = v[..., 1][()], v[..., 3][()]  # [()]: float64 scalars at one state
    return y * px / (1.0 + pow2(y))


HAMILTONIAN = state_field("H", lambda c: _hamiltonian(c[1], c[3], c[4]))
MOMENTUM = state_field("J", lambda c: _momentum(c[1], c[3]))
COORDINATES = tuple(state_field(name, lambda c, k=k: c[k]) for k, name in enumerate(("x", "y", "z", "px", "py")))


def particle_bivector(v):
    """P = E B E^T, the bracket on coordinate gradients: the 5x5 matrix at a
    packed state, the (m, 5, 5) stack at an (m, 5) stack, or its jet at the
    jet of one.  The columns of the 5x4 E are the frame e1 = d/dx + y d/dz,
    e2, e3, e4, and B = -(frame form)^-1 (see the module docstring)."""
    y, w = v[..., 1][()], _coupling(v)  # [()]: a float64 scalar at one state
    return matrix([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, y, 0.0],
                   [-1.0, 0.0, -y, 0.0, w], [0.0, -1.0, 0.0, -w, 0.0]])


def particle_bracket(f: ScalarField, g: ScalarField, v):
    """{f, g} = grad(f) . (P grad(g)) for ScalarFields of the packed 5-vector,
    or the (m,) values at an (m, 5) stack, P the ``particle_bivector``.

    The overall sign is the one that makes P grad(H) reproduce particle_rhs
    (the convention anchor, tested first).  The fields are evaluated at v as
    given, a point or a stack, and the products are ``einsum`` steps.
    """
    v = np.asarray(v, dtype=float)
    pg = np.einsum("...ab,...b->...a", particle_bivector(v), g.grad(v))
    out = np.einsum("...a,...a->...", f.grad(v), pg)
    return out if v.ndim > 1 else float(out)


def particle_momentum(v) -> float:
    """J = px / sqrt(1 + y^2)."""
    _, y, _, px, _ = np.asarray(v, dtype=float).tolist()
    return _momentum(y, px)


def particle_trivector(v) -> np.ndarray:
    """The 5x5x5 Jacobi trivector of the coordinate bracket at a packed state, or
    the (m, 5, 5, 5) stack at an (m, 5) stack, from one jet pass; entry
    [a, b, c] is the cyclic Jacobiator of the coordinates a, b, c."""
    v = np.asarray(v, dtype=float)
    t = jacobi_trivector(particle_bivector(Jet.seed(v.reshape(-1, 5))))
    return t.reshape(v.shape[:-1] + (5, 5, 5))


def particle_jacobiator_reduced(v) -> float:
    """|cyclic Jacobiator| on the reduced coordinate triple (y, px, py)."""
    return abs(float(particle_trivector(v)[1, 3, 4]))


def particle_jacobiator_unreduced(v) -> float:
    """Signed cyclic Jacobiator on (x, px, py); equals y/(1+y^2).

    x does not survive the translation reduction, and on triples that keep
    it the bracket genuinely fails Jacobi — the negative control showing
    the vanishing reduced-triple Jacobiator is not vacuous.
    """
    return float(particle_trivector(v)[0, 3, 4])


#: The columns of a particle trajectory's rows, which are also the ``simulate`` CSV header.
COLUMNS = ("t", "x", "y", "z", "px", "py", "J", "E")


def particle_integrate(state0, cfg, *, sink) -> Streamed:
    """Fixed-step RK4 run of the particle, one row per step, t=0 included,
    whose columns are ``COLUMNS``: as ``dynamics.integrate`` does, it steps
    into one reused buffer of ``dynamics.BLOCK_ROWS`` rows, fills the t
    column and hands ``sink`` each finished block (valid only during the
    call), and returns the run's ``dynamics.Streamed`` record, whose drifts
    are ``particle_drift_report``'s.  J and E are the scalar kernels
    ``particle_momentum`` and ``particle_hamiltonian`` at each row's state.
    The run stops at the first row whose state or E is not finite (an H that
    overflows at a finite state included; J is finite wherever the state
    is), with a warning that names which, and ends with the rows before it;
    nothing past that row is stepped.  The state is a list of five Python
    floats stepped by ``rk4_step``, whose five-element step is written out
    component by component.
    """
    streamed = Streamed(particle_drift_report, sink)
    out = np.empty((BLOCK_ROWS, len(COLUMNS)))
    v = np.array(state0, dtype=float).tolist()
    dt, isfinite = cfg.dt, math.isfinite

    def f(t, y):
        return _field(y)

    def fill(a, b):
        block = out[: b - a]
        block[:, 0] = np.arange(a, b) * dt
        streamed.add(block)

    rows = 0
    for k in range(cfg.steps + 1):
        if k:
            v = rk4_step(f, (k - 1) * dt, v, dt)
        row = (*v, _momentum(v[1], v[3]), _hamiltonian(v[1], v[3], v[4]))
        if not all(map(isfinite, row)):
            fault = "energy" if all(map(isfinite, v)) else "state"
            warnings.warn(f"non-finite {fault} at step {k}; aborting with {k} samples")
            break
        out[k % BLOCK_ROWS, 1:] = row
        rows = k + 1
        if not rows % BLOCK_ROWS:
            fill(rows - BLOCK_ROWS, rows)
    fill(rows - rows % BLOCK_ROWS, rows)
    return streamed


def particle_drift_report(traj: np.ndarray) -> dict:
    """Max absolute drifts of E and J (``dE``, ``dJ``) over a particle trajectory."""
    col = dict(zip(COLUMNS, traj.T))
    return {"dE": drift(col["E"]), "dJ": drift(col["J"])}
