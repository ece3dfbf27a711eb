"""Small linear algebra: 3-vectors, the hat map, RK4 step, finite differences.

Everything here is deliberately written out (no LAPACK dispatch) so results
are bit-reproducible across platforms.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

#: relative step of the 5-point stencil that differentiates a bivector field
TRIVECTOR_STEP = 1e-3
#: relative step of the central differences of ``grad_fd``
GRAD_STEP = 1e-5


def vec3(x: float, y: float, z: float) -> Vec3:
    """Return a float 3-vector."""
    return np.array([float(x), float(y), float(z)])


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Return the cross product a x b."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def dot(a: Vec3, b: Vec3) -> float:
    """Return the dot product of two 3-vectors."""
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def hat(v: Vec3) -> np.ndarray:
    """The antisymmetric 3x3 matrix with hat(v) @ w = v x w."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def nan_max(values):
    """The largest of 0.0 and ``values`` (an iterable or an array), or NaN if
    any value is NaN.

    Python's ``max`` drops a NaN that is not its first argument; otherwise
    this picks the same element.
    """
    if isinstance(values, np.ndarray):
        return float(np.max(values, initial=0.0))
    worst = 0.0
    for v in values:
        if v != v:
            return v
        if v > worst:
            worst = v
    return worst


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h for y' = f(t, y).

    Fixed step, no adaptivity: every integration in this package is meant to
    be bit-reproducible for a given (dt, t_final).
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def grad_fd(f: Callable[[np.ndarray], float], x: np.ndarray, scale: float = GRAD_STEP) -> np.ndarray:
    """Central-difference gradient of f at x.

    Per-coordinate step h_i = scale * max(1, |x_i|); this keeps the step
    meaningful for both O(1) and large coordinates without ever collapsing
    to zero.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def jacobi_trivector(pi_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """The (n, n, n) array T with T(df, dg, dh) = {f,{g,h}} + {g,{h,f}} + {h,{f,g}}
    for the bracket {f, g} = df . pi_fn(x) . dg.

    T is the cyclic sum of A[i,a,b] = sum_k pi[i,k] d_k pi[a,b] (the Schouten
    bracket [pi, pi] up to a constant factor).  The second derivatives of f, g, h
    cancel in the cyclic sum because pi is antisymmetric, so gradients suffice.
    d_k pi is the 5-point central stencil, step TRIVECTOR_STEP * max(1, |x_k|).
    """
    x = np.asarray(x, dtype=float)
    dpi = np.empty((x.size, x.size, x.size))
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h = TRIVECTOR_STEP * max(1.0, abs(x[k]))
        dpi[k] = (8.0 * (pi_fn(x + e) - pi_fn(x - e)) - (pi_fn(x + 2.0 * e) - pi_fn(x - 2.0 * e))) / (12.0 * h)
    a = np.einsum("ik,kab->iab", pi_fn(x), dpi)
    return a + a.transpose(1, 2, 0) + a.transpose(2, 0, 1)
