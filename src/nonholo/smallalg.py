"""Small linear algebra: 3-vectors, RK4 step, finite differences,
and the Jacobi trivector of a bivector field.

Everything here is deliberately written out (no LAPACK dispatch) so results
are bit-reproducible across platforms.  ``jacobi_trivector`` asks its
bivector field for the whole 5-point stencil in one call on a stack of
points, so a field written elementwise on columns (``bivector_packed``)
builds all 4n+1 matrices in one array pass.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

#: relative step of the 5-point stencil that differentiates a bivector field
TRIVECTOR_STEP = 1e-3
#: relative step of the central differences of ``grad_fd``
GRAD_STEP = 1e-5


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


def rk4_step(f: Callable[[float, Sequence[float]], Sequence[float]], t: float, y: Sequence[float], h: float,
             k1: Sequence[float] | None = None) -> list[float]:
    """One classical Runge-Kutta step of size h for y' = f(t, y), as a list.

    ``y`` and the values of ``f`` are sequences of floats (tuples, lists or
    1-d arrays), and the stages are combined element by element on Python
    floats.  Each element sees the operations, in order, of the array formula
    y + (h/6)*(k1 + 2*k2 + 2*k3 + k4) with stages at y + (h/2)*k1,
    y + (h/2)*k2 and y + h*k3, so the step has the bits of that formula at a
    fraction of the cost of 3-vector numpy arithmetic.  A caller that
    already holds ``k1 = f(t, y)`` passes it.

    A state of five or six elements (a particle's, a solid's) is stepped by
    ``_rk4_step5`` or ``_rk4_step6``, which write the combinations out
    component by component; any other length by the generic ``_rk4_step_n``,
    the reference they are tested against bit for bit.

    Fixed step, no adaptivity: every integration in this package is meant to
    be bit-reproducible for a given (dt, t_final).
    """
    return _UNROLLED.get(len(y), _rk4_step_n)(f, t, y, h, k1)


def _rk4_step_n(f, t, y, h, k1=None) -> list[float]:
    """``rk4_step`` of any length, one list comprehension per combination."""
    if k1 is None:
        k1 = f(t, y)
    half = 0.5 * h
    k2 = f(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = f(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def _rk4_step5(f, t, y, h, k1=None) -> list[float]:
    """``_rk4_step_n`` of five elements, its combinations written out component
    by component: the same operations in the same order, so the same bits and
    the same stage arguments, without the per-element loops."""
    y1, y2, y3, y4, y5 = y
    a1, a2, a3, a4, a5 = f(t, y) if k1 is None else k1
    half = 0.5 * h
    b1, b2, b3, b4, b5 = f(t + half, [y1 + half * a1, y2 + half * a2, y3 + half * a3, y4 + half * a4,
                                      y5 + half * a5])
    c1, c2, c3, c4, c5 = f(t + half, [y1 + half * b1, y2 + half * b2, y3 + half * b3, y4 + half * b4,
                                      y5 + half * b5])
    d1, d2, d3, d4, d5 = f(t + h, [y1 + h * c1, y2 + h * c2, y3 + h * c3, y4 + h * c4, y5 + h * c5])
    sixth = h / 6.0
    return [y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1), y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3), y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5)]


def _rk4_step6(f, t, y, h, k1=None) -> list[float]:
    """``_rk4_step_n`` of six elements, written out as ``_rk4_step5``."""
    y1, y2, y3, y4, y5, y6 = y
    a1, a2, a3, a4, a5, a6 = f(t, y) if k1 is None else k1
    half = 0.5 * h
    b1, b2, b3, b4, b5, b6 = f(t + half, [y1 + half * a1, y2 + half * a2, y3 + half * a3, y4 + half * a4,
                                          y5 + half * a5, y6 + half * a6])
    c1, c2, c3, c4, c5, c6 = f(t + half, [y1 + half * b1, y2 + half * b2, y3 + half * b3, y4 + half * b4,
                                          y5 + half * b5, y6 + half * b6])
    d1, d2, d3, d4, d5, d6 = f(t + h, [y1 + h * c1, y2 + h * c2, y3 + h * c3, y4 + h * c4, y5 + h * c5,
                                       y6 + h * c6])
    sixth = h / 6.0
    return [y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1), y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3), y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5), y6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)]


#: The written-out steps of ``rk4_step``, by state length
_UNROLLED = {5: _rk4_step5, 6: _rk4_step6}


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


def pow2(a):
    """a**2 as libm pow: Python's ``**`` on a float, and on each element of an
    array.  numpy's array ``a**2`` is a*a, which differs in the last bit for
    about 0.1% of values; the per-state kernels have always squared with pow.
    """
    if isinstance(a, np.ndarray):
        return np.array([v**2 for v in a.tolist()])
    return a**2


def jacobi_trivector(pi_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """The (n, n, n) array T with T(df, dg, dh) = {f,{g,h}} + {g,{h,f}} + {h,{f,g}}
    for the bracket {f, g} = df . pi_fn(x) . dg.

    ``pi_fn`` maps an (m, n) stack of points to the (m, n, n) stack of their
    bivectors.  It is called once, on the 4n+1 points of the stencil.

    T is the cyclic sum of A[i,a,b] = sum_k pi[i,k] d_k pi[a,b] (the Schouten
    bracket [pi, pi] up to a constant factor).  The second derivatives of f, g, h
    cancel in the cyclic sum because pi is antisymmetric, so gradients suffice.
    d_k pi is the 5-point central stencil at x +- e_k, x +- 2 e_k, with
    |e_k| = TRIVECTOR_STEP * max(1, |x_k|).
    """
    x = np.asarray(x, dtype=float)
    h = [TRIVECTOR_STEP * max(1.0, abs(v)) for v in x.tolist()]
    e = np.diag(h)  # row k is e_k
    pis = pi_fn(np.concatenate([x[None], x + e, x - e, x + 2.0 * e, x - 2.0 * e]))
    plus, minus, plus2, minus2 = pis[1:].reshape(4, x.size, x.size, x.size)
    dpi = (8.0 * (plus - minus) - (plus2 - minus2)) / (12.0 * np.array(h))[:, None, None]
    a = np.einsum("ik,kab->iab", pis[0], dpi)
    return a + a.transpose(1, 2, 0) + a.transpose(2, 0, 1)
