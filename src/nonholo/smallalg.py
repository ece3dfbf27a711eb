"""Small numerics: the NaN-aware maximum, the columns of a state stack, the
RK4 step, forward-mode jets, the one assembly of a matrix from its entries,
and the Jacobi trivector of a bivector field.

Everything here is deliberately written out (no LAPACK dispatch) so results
are bit-reproducible across platforms.  Every derivative in the package is a
``Jet`` pass through an elementwise body: the profile, Omega, the energy and
the gauge fields, and, through ``jet_gradient``, every ``ScalarField``
gradient (tau1..tau5, j1, j2, and the particle's H, J and coordinates;
``brackets.state_field``).  ``grad_fd`` is only the reference that the
tests compare the gradients against.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Vec3 = np.ndarray  # shape (3,), float64


def nan_max(values: np.ndarray) -> float:
    """The largest of 0.0 and the entries of the array ``values``, or NaN if
    any entry is NaN (Python's ``max`` drops a NaN that is not its first
    argument)."""
    return float(np.max(values, initial=0.0))


def columns(x) -> list:
    """The components of a packed point as Python floats, the columns of an
    (m, n) stack as arrays, or the column jets of the jet of one: what an
    elementwise body reads."""
    if isinstance(x, Jet):
        return [x[:, k] for k in range(x.value.shape[-1])]
    x = np.asarray(x, dtype=float)
    return x.tolist() if x.ndim == 1 else list(x.T)


def stacked(entries, like) -> np.ndarray:
    """The vector of ``entries`` at a point, or their (m, k) rows over a stack:
    each entry is a float or an array shaped as ``like``, a column of ``columns``."""
    out = np.empty(np.shape(like) + (len(entries),))
    for k, e in enumerate(entries):
        out[..., k] = e
    return out


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
    component by component; a state of any other length is a ValueError.

    Fixed step, no adaptivity: every integration in this package is meant to
    be bit-reproducible for a given (dt, t_final).
    """
    step = _UNROLLED.get(len(y))
    if step is None:
        raise ValueError(f"rk4_step steps states of 5 or 6 elements, not {len(y)}")
    return step(f, t, y, h, k1)


def _rk4_step5(f, t, y, h, k1=None) -> list[float]:
    """``rk4_step`` of five elements, its combinations written out component by
    component: each element sees the operations, in order, of a per-element
    loop over each combination, so the same bits, without the loops."""
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
    """``rk4_step`` of six elements, written out as ``_rk4_step5``."""
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


def grad_fd(f: Callable[[np.ndarray], float], x: np.ndarray, scale: float = 1e-5) -> np.ndarray:
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
    """a**2 as libm pow: Python's ``**`` on a float (or a jet), and on each
    element of a 1-d array, but inf past the float range (where ``**`` raises
    OverflowError).  numpy's array ``a**2`` is a*a, which differs in the last
    bit for about 0.1% of values; the per-state kernels have always squared
    with pow."""
    # a float is tested first: the per-row kernels square floats, and an ndarray test costs more than the square
    if isinstance(a, float) or not isinstance(a, np.ndarray):
        try:
            return a**2
        except OverflowError:
            return math.inf
    try:  # a.tolist() inline: the list of floats is freed before np.array builds the result
        return np.array([v**2 for v in a.tolist()])
    except OverflowError:  # the rare array with an overflowing square pays a call per element
        return np.array([pow2(v) for v in a.tolist()])


class Jet:
    """A value and its gradient along n seeded variables: forward-mode
    automatic differentiation (Rall, *Automatic Differentiation*, LNCS 120,
    1981; Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 3).

    ``value`` is a float array and ``grad`` has shape (n,) + value.shape;
    ``grad[k]`` is the derivative of ``value`` along variable k.  Jets combine
    with jets, floats and arrays under ``+ - * /``, their reflected forms,
    negation and ``**2``.  Each value is the IEEE operation the float bodies
    run on it, and the square is ``pow2``, so a body written elementwise on
    its arguments returns on jets the bits of its array pass, and with them
    the exact gradient.
    """

    __slots__ = ("value", "grad")
    __array_ufunc__ = None  # an array or numpy scalar on the left defers to the reflected operator

    def __init__(self, value, grad):
        self.value, self.grad = value, grad

    @classmethod
    def seed(cls, x) -> "Jet":
        """The jet of the coordinates of an (m, n) stack of points: variable k
        is coordinate k of every point."""
        x = np.asarray(x, dtype=float)
        grad = np.zeros((x.shape[-1],) + x.shape)
        for k in range(x.shape[-1]):
            grad[k, ..., k] = 1.0
        return cls(x, grad)

    def __getitem__(self, index) -> "Jet":
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.value[index], self.grad[(slice(None),) + index])

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.grad)

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self.grad + other.grad)
        return Jet(self.value + other, self.grad)

    def __radd__(self, other) -> "Jet":
        return Jet(other + self.value, self.grad)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.value - other.value, self.grad - other.grad)
        return Jet(self.value - other, self.grad)

    def __rsub__(self, other) -> "Jet":
        return Jet(other - self.value, -self.grad)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return Jet(self.value * other.value, self.grad * other.value + self.value * other.grad)
        return Jet(self.value * other, self.grad * other)

    def __rmul__(self, other) -> "Jet":
        return Jet(other * self.value, other * self.grad)

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            q = self.value / other.value
            return Jet(q, (self.grad - q * other.grad) / other.value)
        return Jet(self.value / other, self.grad / other)

    def __rtruediv__(self, other) -> "Jet":
        q = other / self.value
        return Jet(q, -q * self.grad / self.value)

    def __pow__(self, k) -> "Jet":
        if k != 2:
            return NotImplemented
        return Jet(pow2(self.value), 2.0 * self.value * self.grad)

    def sqrt(self) -> "Jet":
        """The jet of the square root, for ``profile_terms``'s ``sqrt``."""
        r = np.sqrt(self.value)
        return Jet(r, self.grad * (0.5 / r))


def matrix(rows):
    """The matrix whose entry [i][j] is ``rows[i][j]``: the (r, c) array when
    every entry is a float, the C-contiguous (m, r, c) stack when an entry is
    an (m,) column, and the jet of that stack when an entry is a jet (of an
    (m,) value).  A float entry is the same in every matrix of a stack, with
    a zero gradient."""
    entries = [e for row in rows for e in row]
    jet = next((e for e in entries if isinstance(e, Jet)), None)
    column = jet.value if jet is not None else next((e for e in entries if isinstance(e, np.ndarray)), 0.0)
    value = np.zeros(np.shape(column) + (len(rows), len(rows[0])))
    grad = None if jet is None else np.zeros(jet.grad.shape[:1] + value.shape)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if isinstance(e, Jet):
                value[..., i, j], grad[..., i, j] = e.value, e.grad
            else:
                value[..., i, j] = e
    return value if grad is None else Jet(value, grad)


def jet_gradient(fn: Callable[[Jet], Jet], x) -> np.ndarray:
    """The gradient of ``fn`` at the point x, or its (m, n) rows at an (m, n) stack,
    C-contiguous (``einsum`` sums a strided operand in another order, other bits);
    ``fn`` maps jets of (m, n) stacks to jets of (m,) values."""
    x = np.asarray(x, dtype=float)
    return np.ascontiguousarray(fn(Jet.seed(x.reshape(-1, x.shape[-1]))).grad.T).reshape(x.shape)


def jacobi_trivector(pi: Jet) -> np.ndarray:
    """The (m, n, n, n) arrays T with T(df, dg, dh) = {f,{g,h}} + {g,{h,f}} + {h,{f,g}}
    for {f, g} = df . pi . dg, ``pi`` the jet of an (m, n, n) stack of bivectors.

    T is the cyclic sum of A[i,a,b] = sum_k pi[i,k] d_k pi[a,b] (the Schouten bracket
    [pi, pi] up to a constant factor), d_k pi the gradient part of the jet.  The second
    derivatives of f, g, h cancel in the cyclic sum because pi is antisymmetric."""
    a = np.einsum("mik,kmab->miab", pi.value, pi.grad)
    t = a + a.transpose(0, 2, 3, 1)
    t += a.transpose(0, 3, 1, 2)  # in place: one temporary fewer
    return t
