"""Gauge momenta: the coefficient ODE, its solutions, and J-evaluation.

A gauge momentum is a conserved quantity J = f(tau1)*j1 + g(tau1)*j2 whose
coefficient pair (f, g) satisfies the linear ODE

    (f', g') = [[tau1, -1], [1, 0]] . [QP](tau1)^T . (f, g),

equivalently the pointwise identity f'*j1 + g'*j2 = f*Q + g*P for all
(tau3, tau4).  Two independent solutions exist for every profile; for the
Routh sphere they are closed-form:

    pair1 = (l, r)                                  J1 = l*j1 + r*j2 = -<M, s>
    pair2 = ( -(I1 + m*l*zeta)/sqrt(P), -m*r*zeta/sqrt(P) )
                                                    J2 -> sqrt(P)*Omega3 at the poles

with zeta = -r*gamma3 + l and P(gamma3) = I1*I3 + m*(I1*r^2*(1-gamma3^2)
+ I3*zeta^2).  pair1 spans the kernel of [QP]^T (so Q*l + ... = 0 row by
row); pair2 was checked symbolically against the ODE.

Numeric solutions integrate outward from tau1 = 0 with fixed-step RK4 and
are tabulated on a uniform grid in (-1+delta, 1-delta); evaluation between
nodes is linear interpolation.  Independence of the two solutions (the
determinant f1*g2 - f2*g1 per node) is *reported*, not assumed.

An ellipsoid steps only its upper half.  The centred ellipsoid is symmetric
under reflection through its equatorial plane: QP00 and QP11 are even in
tau1, QP01 and QP10 odd, and the two solutions satisfy

    (f1, g1, f2, g2)(-tau1) = (f1, -g1, -f2, g2)(tau1).

Every operation of the profile terms, of [QP] and of the RK4 steps keeps
this parity exactly, and round-to-nearest is symmetric under negation, so
the reflected rows are the bits that stepping -h gives.  Only the sign of an
exact zero (and NaN) can differ; a table whose upper half holds one steps
the lower half as well (a balanced ellipsoid, c = b, has exact zeros in f2).
An offset of the centre of mass along the axis breaks the evenness; an
ellipsoid profile with one must reflect only where the offset is 0.

The solve never calls ``qp_matrix`` per stage.  [QP] is closed-form in
tau1, so it is evaluated up front, as numpy arrays, at every stage time of
a chunk of steps (t, t + h/2 and t + h; ``geomforms.qp_grid``).  The RK4
steps of both pairs then run on Python floats, written out component by
component: the stage combinations of ``smallalg.rk4_step`` and, for each of
the eight slope evaluations of a step, the three lines of ``_ode_slope``
(the arithmetic of ``momenta_ode_rhs``).  Every IEEE operation keeps its
order, so the table is bit-identical to stepping the two pairs with
``rk4_step``, at a few percent of its cost.  ``march`` yields the rows a
chunk at a time, which bounds the transient arrays to a few hundred nodes:
``solve_momenta`` tabulates them, and the Routh ``span-containment`` record
folds them against the closed forms without a table.

A run reads one solution, built by ``solution_for`` on its (delta, h)
grid (``grid_half`` checks it, and its GridError names the parameter at
fault), and asks it for ``eval`` (the values) and ``slope`` (the
tau1-derivatives); ``brackets.casimir_residuals`` builds the gradients of
the gauge momenta from the two.  The choice between closed forms and table
is the solution's type, made once there: ``ClosedFormMomenta`` or the
tabulated ``MomentaSolution``.  Both look a tau1 array up in one chunked
body, with NaN rows off the solution; a float tau1 (or a 0-d array) is a
stack of one that raises DomainError there instead.  A table reads each
column with ``np.interp``.  The closed forms and ``ode_residual`` also take
a tau1 array, which the certificates sweep in one pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError, NonholoError
from .geomforms import qp_grid, qp_matrix
from .phase import BodyParams, momentum_components
from .profile import DOMAIN_SLACK, ProfileSpec
from .smallalg import nan_max

#: RK4 steps of a solve, or elements of a tau1 array a lookup reads, in one array pass
_CHUNK = 256
#: Largest (1 - delta)/h, the nodes on each side of tau1 = 0, of a momenta table
MAX_HALF_GRID = 1_000_000


def _ode_slope(q00, q01, q10, q11, tau1, f, g) -> tuple:
    """(f', g') from the entries of [QP] at tau1, on floats."""
    qf = q00 * f + q10 * g   # [QP]^T . (f, g)
    qg = q01 * f + q11 * g
    return tau1 * qf - qg, qf


def momenta_ode_rhs(
    params: BodyParams, spec: ProfileSpec, tau1: float, fg
) -> np.ndarray:
    """Right-hand side (f', g') of the coefficient ODE at tau1."""
    qp = qp_matrix(params, spec, tau1)
    return np.array(
        _ode_slope(qp[0, 0], qp[0, 1], qp[1, 0], qp[1, 1], tau1, float(fg[0]), float(fg[1]))
    )


@dataclass
class MomentaSolution:
    """Two coefficient pairs tabulated over a tau1 grid.

    ``pairs[k] = (f1, g1, f2, g2)`` at ``grid[k]``.  ``eval`` interpolates
    them linearly, and ``slope`` is the coefficient ODE's right-hand side at
    those values, so (value, slope) solves the ODE pointwise.
    """

    params: BodyParams
    spec: ProfileSpec
    grid: np.ndarray
    _pairs: np.ndarray | None

    @property
    def pairs(self) -> np.ndarray:
        """The rows at the nodes of ``grid``, looked up on the first read if not given."""
        if self._pairs is None:
            self._pairs = self._lookup(self._values, self.grid)
        return self._pairs

    def eval(self, tau1) -> np.ndarray:
        """Return (f1, g1, f2, g2) at tau1, or their (n, 4) rows at a tau1 array.

        Raises:
            DomainError: if a float tau1 is off this solution; an array gets
                NaN rows there instead.
        """
        return self._lookup(self._values, tau1)

    def slope(self, tau1) -> np.ndarray:
        """Return (f1', g1', f2', g2') at tau1, or their (n, 4) rows at a tau1
        array; raises DomainError where ``eval`` does."""
        return self._lookup(self._slopes, tau1)

    @np.errstate(all="ignore")  # out-of-range bodies give inf/NaN silently, as float arithmetic does
    def _lookup(self, body, tau1) -> np.ndarray:
        """``body`` at a float tau1 (a stack of one), or at each element of an
        array, in chunks that bound the transient arrays; off rows are NaN."""
        lo, hi, name = self._domain()
        if np.ndim(tau1) == 0:  # a float, a numpy scalar or a 0-d array
            t1 = float(tau1)
            if t1 < lo or t1 > hi:
                raise DomainError(f"tau1={t1!r} outside {name}")
            return self._lookup(body, np.array([t1]))[0]
        out = np.empty((len(tau1), 4))
        for k in range(0, len(tau1), _CHUNK):
            tk = tau1[k : k + _CHUNK]
            off = (tk < lo) | (tk > hi)
            rows = body(np.where(off, 0.0, tk))  # float64; a body never sees a tau1 off the solution
            rows[off] = np.nan
            out[k : k + _CHUNK] = rows
        return out

    def _domain(self) -> tuple[float, float, str]:
        """The tau1 range (lo, hi) this solution answers, and its name in a DomainError."""
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        return lo - 1e-12, hi + 1e-12, f"the momenta grid [{lo!r}, {hi!r}]"

    def _values(self, t: np.ndarray) -> np.ndarray:
        """The rows at t, each column interpolated linearly between the nodes
        around each element by ``np.interp``."""
        return np.column_stack([np.interp(t, self.grid, column) for column in self.pairs.T])

    def _slopes(self, t: np.ndarray) -> np.ndarray:
        """``momenta_ode_rhs`` at t and the rows of ``_values``, bit for bit."""
        f1, g1, f2, g2 = self._values(t).T
        q = qp_grid(self.params, self.spec, t)
        rows = np.column_stack([*_ode_slope(*q, t, f1, g1), *_ode_slope(*q, t, f2, g2)])
        rows[t != t] = np.nan
        return rows

    def independence(self) -> np.ndarray:
        """Determinant f1*g2 - f2*g1 per grid node."""
        return self.pairs[:, 0] * self.pairs[:, 3] - self.pairs[:, 2] * self.pairs[:, 1]

    def min_independence(self) -> float:
        """Smallest |det| over the grid (reported by checks, never assumed)."""
        return float(np.min(np.abs(self.independence())))


def grid_half(delta: float, h: float) -> int:
    """Nodes on each side of tau1 = 0 of the (delta, h) grid, the one check of
    a grid.  GridError, naming the parameter at fault, if delta is outside
    [1e-6, 0.1], h outside (0, 1e-3], or (1 - delta)/h, an overflowing inf
    included, above MAX_HALF_GRID (then h is at fault)."""
    if not 1e-6 <= delta <= 0.1:
        raise GridError(f"delta={delta!r} outside [1e-6, 0.1]", "delta")
    if not 0 < h <= 1e-3:
        raise GridError(f"h={h!r} outside (0, 1e-3]", "h")
    half = (1.0 - delta) / h
    if not half <= MAX_HALF_GRID:
        raise GridError(f"(1 - delta)/h = {half:g} exceeds {MAX_HALF_GRID} nodes per half-grid", "h")
    return int(math.floor(half + 1e-9))


def _grid(delta: float, h: float) -> np.ndarray:
    n = grid_half(delta, h)
    return np.arange(-n, n + 1) * h


@np.errstate(all="ignore")  # a non-finite table is raised as an error instead
def solve_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """Integrate the coefficient ODE outward from tau1 = 0 with RK4 (``march``).

    Initial pairs at tau1 = 0 are (1, 0) and (0, 1).  Grid spans
    +-(1 - delta) with step h.  An ellipsoid steps +h only and fills the
    lower half by reflection (``_reflect_lower_half``), unless its upper
    half holds an exact zero or a non-finite value; then it steps -h too.
    The table has the bits of stepping both halves either way.

    Raises:
        ValueError: if ``grid_half`` refuses (delta, h).
        NonholoError: if a node of the table is not finite.
    """
    grid = _grid(delta, h)
    n = (len(grid) - 1) // 2
    pairs = np.empty((4, len(grid))).T  # column-major: np.interp reads each column without a copy
    for nodes, rows in march(params, spec, delta, h):
        pairs[n + nodes] = rows
        if nodes[-1] == n and spec.kind == "ellipsoid" and _reflect_lower_half(pairs, n):
            break  # the march stops here: the lower half is never stepped
    return MomentaSolution(params, spec, grid, pairs)


def march(params: BodyParams, spec: ProfileSpec, delta: float, h: float):
    """Step both pairs from (1, 0, 0, 1) at tau1 = 0 over the (delta, h) grid,
    ``_CHUNK`` RK4 steps at a time, yielding each chunk's node numbers k
    (tau1 = k*h) and (m, 4) rows: the centre, then +h to node n, then -h to
    -n.  ValueError if ``grid_half`` refuses the grid; NonholoError, once
    every row is yielded, if any is not finite."""
    n = grid_half(delta, h)
    y0 = (1.0, 0.0, 0.0, 1.0)
    yield np.zeros(1, dtype=int), np.array([y0])
    bad = 0
    for direction in (+1, -1):
        step = direction * h
        y = y0
        for k0 in range(1, n + 1, _CHUNK):
            ks = np.arange(k0, min(k0 + _CHUNK, n + 1))
            t = (direction * (ks - 1)) * h  # as rk4_step's t = direction*(k-1)*h
            stage_t = np.concatenate([t, t + 0.5 * step, t + step])
            qp = [q.tolist() for q in qp_grid(params, spec, stage_t)]
            steps = _rk4_pairs(y, step, stage_t.tolist(), qp)
            y, rows = steps[-1], np.array(steps)
            bad += len(rows) - np.count_nonzero(np.isfinite(rows).all(axis=1))
            yield direction * ks, rows
    if bad:
        raise NonholoError(f"momenta table not finite at {bad} of {2 * n + 1} nodes"
                           " (the configured values are outside floating-point range)")


def _reflect_lower_half(pairs: np.ndarray, n: int) -> bool:
    """Fill rows n-1 ... 0 of an ellipsoid table in place with rows 2n ... n+1,
    g1 and f2 negated, if the upper half is finite and free of zeros (the
    bits of stepping -h then; see the module docstring).  Return whether it did.
    """
    upper = pairs[n + 1 :]
    # Reductions only: a boolean mask of the half-table raises peak RSS.  NaN fails both bounds.
    finite = -math.inf < upper.min() and upper.max() < math.inf
    if not (finite and np.count_nonzero(upper) == upper.size):
        return False
    pairs[:n] = pairs[:n:-1]
    np.negative(pairs[:n, 1:3], out=pairs[:n, 1:3])
    return True


def _rk4_pairs(y: tuple, h: float, stage_t: list, qp: list) -> list:
    """RK4 steps of both coefficient pairs y = (f1, g1, f2, g2), on floats.

    ``stage_t`` lists the m step starts, then their midpoints, then their
    ends; ``qp`` holds the four [QP] entries at those times.  The stages of
    ``rk4_step`` with ``momenta_ode_rhs`` as right-hand side are written out
    component by component, each slope as ``_ode_slope``'s lines (a stage's
    g' is its qf), so the values are bit-identical to it.  Returns the m new
    states.
    """
    m = len(stage_t) // 3
    # the four [QP] entries and the time at the starts, then the midpoints, then the ends
    stages = [col[k * m : (k + 1) * m] for k in range(3) for col in (*qp, stage_t)]
    half, sixth = 0.5 * h, h / 6.0
    f1, g1, f2, g2 = y
    out = []
    append = out.append
    for a, b, c, d, t, a2, b2, c2, d2, t2, a3, b3, c3, d3, t3 in zip(*stages):
        k1g1 = a * f1 + c * g1
        k1f1 = t * k1g1 - (b * f1 + d * g1)
        k1g2 = a * f2 + c * g2
        k1f2 = t * k1g2 - (b * f2 + d * g2)
        u1, v1, u2, v2 = f1 + half * k1f1, g1 + half * k1g1, f2 + half * k1f2, g2 + half * k1g2
        k2g1 = a2 * u1 + c2 * v1
        k2f1 = t2 * k2g1 - (b2 * u1 + d2 * v1)
        k2g2 = a2 * u2 + c2 * v2
        k2f2 = t2 * k2g2 - (b2 * u2 + d2 * v2)
        u1, v1, u2, v2 = f1 + half * k2f1, g1 + half * k2g1, f2 + half * k2f2, g2 + half * k2g2
        k3g1 = a2 * u1 + c2 * v1
        k3f1 = t2 * k3g1 - (b2 * u1 + d2 * v1)
        k3g2 = a2 * u2 + c2 * v2
        k3f2 = t2 * k3g2 - (b2 * u2 + d2 * v2)
        u1, v1, u2, v2 = f1 + h * k3f1, g1 + h * k3g1, f2 + h * k3f2, g2 + h * k3g2
        k4g1 = a3 * u1 + c3 * v1
        k4f1 = t3 * k4g1 - (b3 * u1 + d3 * v1)
        k4g2 = a3 * u2 + c3 * v2
        k4f2 = t3 * k4g2 - (b3 * u2 + d3 * v2)
        f1 = f1 + sixth * (k1f1 + 2.0 * k2f1 + 2.0 * k3f1 + k4f1)
        g1 = g1 + sixth * (k1g1 + 2.0 * k2g1 + 2.0 * k3g1 + k4g1)
        f2 = f2 + sixth * (k1f2 + 2.0 * k2f2 + 2.0 * k3f2 + k4f2)
        g2 = g2 + sixth * (k1g2 + 2.0 * k2g2 + 2.0 * k3g2 + k4g2)
        append((f1, g1, f2, g2))
    return out


def _routh_zeta_p(params: BodyParams, r: float, l: float, gamma3):
    """zeta, P(gamma3) and sqrt(P) of the Routh sphere, on a float (math.sqrt)
    or elementwise on an array (np.sqrt).

    Written out here rather than taken from the profile module: the closed
    forms are the independent oracle that the numeric path is checked against.
    """
    zeta = -r * gamma3 + l
    p = params.I1 * params.I3 + params.m * (
        params.I1 * r * r * (1.0 - gamma3 * gamma3) + params.I3 * zeta * zeta
    )
    return zeta, p, (np.sqrt if isinstance(gamma3, np.ndarray) else math.sqrt)(p)


def routh_closed_form(params: BodyParams, r: float, l: float, gamma3) -> tuple[tuple, tuple]:
    """The two closed-form coefficient pairs of the Routh sphere at gamma3.

    ``gamma3`` is a float or an array; on an array the second pair holds
    arrays, equal bit for bit to the float calls, and the first stays (l, r).
    """
    zeta, p, sq = _routh_zeta_p(params, r, l, gamma3)
    return (l, r), (-(params.I1 + params.m * l * zeta) / sq, -params.m * r * zeta / sq)


def routh_closed_form_derivative(params: BodyParams, r: float, l: float, gamma3) -> tuple[tuple, tuple]:
    """gamma3-derivatives of the closed-form pairs (pair1 is constant); a float
    or an array ``gamma3`` as in ``routh_closed_form``."""
    zeta, p, sq = _routh_zeta_p(params, r, l, gamma3)
    dp = 2.0 * params.m * (-params.I1 * r * r * gamma3 - r * params.I3 * zeta)
    u = -(params.I1 + params.m * l * zeta)
    du = params.m * l * r
    v = -params.m * r * zeta
    dv = params.m * r * r
    return (0.0, 0.0), (du / sq - u * dp / (2.0 * p * sq), dv / sq - v * dp / (2.0 * p * sq))


class ClosedFormMomenta(MomentaSolution):
    """The Routh closed forms as a MomentaSolution: exact rows and slopes,
    valid on all of [-1, 1], poles included.  The (delta, h) ``grid`` and
    the ``pairs`` on it are built when first read, since a run reads neither."""

    def __init__(self, params: BodyParams, spec: ProfileSpec, delta: float, h: float) -> None:
        grid_half(delta, h)  # refuses the grid as a table's solve does
        self.params, self.spec, self._pairs, self._delta_h = params, spec, None, (delta, h)

    @cached_property
    def grid(self) -> np.ndarray:
        return _grid(*self._delta_h)

    def _domain(self) -> tuple[float, float, str]:
        return -1.0 - DOMAIN_SLACK, 1.0 + DOMAIN_SLACK, "[-1, 1]"

    def _values(self, t: np.ndarray) -> np.ndarray:
        return self._rows(routh_closed_form, t)

    def _slopes(self, t: np.ndarray) -> np.ndarray:
        return self._rows(routh_closed_form_derivative, t)

    def _rows(self, form, t: np.ndarray) -> np.ndarray:
        p1, p2 = form(self.params, self.spec.p1, self.spec.p2, t)
        return np.column_stack(np.broadcast_arrays(*p1, *p2))


def closed_form_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """Routh closed forms packaged as a MomentaSolution (exact evaluation) on
    the (delta, h) grid; ValueError if ``grid_half`` refuses it."""
    if spec.kind != "routh":
        raise ValueError("closed forms are available for the routh profile only")
    return ClosedFormMomenta(params, spec, delta, h)


def solution_for(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """The momenta a run reads: the Routh closed forms, else a numeric solve,
    both on the (delta, h) grid (ValueError if ``grid_half`` refuses it)."""
    build = closed_form_momenta if spec.kind == "routh" else solve_momenta
    return build(params, spec, delta, h)


def eval_gauge_momenta(solution: MomentaSolution, x) -> tuple[float, float]:
    """Evaluate (J1, J2) = (f_i*j1 + g_i*j2) at a packed state."""
    x = np.asarray(x, dtype=float)
    j1, j2 = momentum_components(x)
    f1, g1, f2, g2 = solution.eval(float(x[2]))
    return f1 * j1 + g1 * j2, f2 * j1 + g2 * j2


def ode_residual(params: BodyParams, spec: ProfileSpec, tau1, fg, dfg) -> float:
    """max-norm of a pair's derivative ``dfg`` minus the ODE right-hand side at
    the pair ``fg``, at tau1 or worst over a tau1 array (``fg`` and ``dfg``
    then hold arrays, or constants); NaN if any entry is NaN."""
    rf, rg = _ode_slope(*qp_grid(params, spec, tau1), tau1, fg[0], fg[1])
    return nan_max(np.abs([dfg[0] - rf, dfg[1] - rg]))
