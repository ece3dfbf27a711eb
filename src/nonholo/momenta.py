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

The solve never calls ``qp_matrix`` per stage.  [QP] is closed-form in
tau1, so it is evaluated up front, as numpy arrays, at every stage time of
a chunk of steps (t, t + h/2 and t + h; ``geomforms.qp_grid``).  The RK4
steps of both pairs then run on Python floats with the operation order of
``smallalg.rk4_step`` applied to ``momenta_ode_rhs``, whose arithmetic
(``_ode_slope``) they share.  The table is therefore bit-identical to
stepping the two pairs with ``rk4_step``, at a few percent of its cost;
chunking bounds the transient arrays to a few hundred nodes.  A lookup
(``MomentaSolution.eval``) finds its row pair with one ``searchsorted`` and
interpolates all four columns with ``np.interp``'s formula, again bit for
bit.

Every consumer of a coefficient pair asks the solution: ``eval`` for the
values and ``slope`` for the tau1-derivatives, so the choice between closed
forms and table is made once, here.  The closed forms and ``ode_residual``
also take a tau1 array, which the certificates sweep in one pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import J1_COMPONENT, J2_COMPONENT, ScalarField
from .errors import DomainError, NonholoError
from .geomforms import qp_grid, qp_matrix
from .phase import BodyParams, momentum_components
from .profile import ProfileSpec
from .smallalg import nan_max

#: RK4 steps whose stage values of [QP] are evaluated in one array pass
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

    ``pairs[k] = (f1, g1, f2, g2)`` at ``grid[k]``.  When ``routh_exact``
    is set ``eval`` and ``slope`` bypass the table and use the closed forms
    (valid on all of [-1, 1], poles included).
    """

    params: BodyParams
    spec: ProfileSpec
    grid: np.ndarray
    pairs: np.ndarray
    delta: float
    h: float
    routh_exact: bool = False

    def eval(self, tau1: float) -> np.ndarray:
        """Return (f1, g1, f2, g2) at tau1.

        Tabulated mode interpolates linearly between the two nodes around
        tau1, with the same bits as ``np.interp`` on each column of a
        finite table.

        Raises:
            DomainError: if tau1 falls outside the grid (tabulated mode)
                or beyond [-1, 1] (closed-form mode).
        """
        t1 = float(tau1)
        if self.routh_exact:
            return self._closed(routh_closed_form, t1)
        grid, pairs = self.grid, self.pairs
        if t1 < grid[0] - 1e-12 or t1 > grid[-1] + 1e-12:
            raise DomainError(
                f"tau1={t1!r} outside the momenta grid [{float(grid[0])!r}, {float(grid[-1])!r}]"
            )
        # np.interp on each column, from one row pair: its NaN, end and node
        # cases, and its formula slope*(t - x0) + p0.
        if t1 != t1:
            return np.full(4, t1)
        j = int(grid.searchsorted(t1, "right")) - 1
        if j < 0:
            return pairs[0].copy()
        if j >= len(grid) - 1:
            return pairs[-1].copy()
        (x0, x1), (row0, row1) = grid[j : j + 2].tolist(), pairs[j : j + 2].tolist()
        if x0 == t1:
            return np.array(row0)
        dx, dt = x1 - x0, t1 - x0
        return np.array([(p1 - p0) / dx * dt + p0 for p0, p1 in zip(row0, row1)])

    def slope(self, tau1: float) -> np.ndarray:
        """Return the tau1-derivatives (f1', g1', f2', g2') at tau1.

        Closed-form mode differentiates the closed forms; tabulated mode
        takes the coefficient ODE's right-hand side at the values of
        ``eval``, so (value, slope) solves the ODE pointwise and carries no
        interpolation kink.

        Raises:
            DomainError: where ``eval`` does.
        """
        t1 = float(tau1)
        if self.routh_exact:
            return self._closed(routh_closed_form_derivative, t1)
        f1, g1, f2, g2 = self.eval(t1).tolist()
        qp = qp_matrix(self.params, self.spec, t1)
        q = (qp[0, 0], qp[0, 1], qp[1, 0], qp[1, 1])
        return np.array([*_ode_slope(*q, t1, f1, g1), *_ode_slope(*q, t1, f2, g2)])

    def _closed(self, form, t1: float) -> np.ndarray:
        """``form`` (the closed pairs or their derivatives) at t1 as (f1, g1, f2, g2)."""
        if abs(t1) > 1.0 + 1e-9:
            raise DomainError(f"tau1={t1!r} outside [-1, 1]")
        p1, p2 = form(self.params, self.spec.p1, self.spec.p2, t1)
        return np.array([*p1, *p2])

    def independence(self) -> np.ndarray:
        """Determinant f1*g2 - f2*g1 per grid node."""
        return self.pairs[:, 0] * self.pairs[:, 3] - self.pairs[:, 2] * self.pairs[:, 1]

    def min_independence(self) -> float:
        """Smallest |det| over the grid (reported by checks, never assumed)."""
        return float(np.min(np.abs(self.independence())))


def grid_half(delta: float, h: float) -> int:
    """Nodes on each side of tau1 = 0 of the (delta, h) grid; ValueError if
    (1 - delta)/h, an overflowing inf included, exceeds MAX_HALF_GRID."""
    if not (1.0 - delta) / h <= MAX_HALF_GRID:
        raise ValueError(f"(1 - delta)/h = {(1.0 - delta) / h:g} exceeds {MAX_HALF_GRID} nodes per half-grid")
    return int(math.floor((1.0 - delta) / h + 1e-9))


def _grid(delta: float, h: float) -> np.ndarray:
    n = grid_half(delta, h)
    return np.arange(-n, n + 1) * h


@np.errstate(all="ignore")  # a non-finite table is raised as an error instead
def solve_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """Integrate the coefficient ODE outward from tau1 = 0 with RK4.

    Initial pairs at tau1 = 0 are (1, 0) and (0, 1).  Grid spans
    +-(1 - delta) with step h.

    Raises:
        ValueError: if delta is outside [1e-6, 0.1], h > 1e-3 or (1 - delta)/h > MAX_HALF_GRID.
        NonholoError: if a node of the table is not finite.
    """
    if not 1e-6 <= delta <= 0.1:
        raise ValueError(f"delta={delta!r} outside [1e-6, 0.1]")
    if not 0 < h <= 1e-3:
        raise ValueError(f"h={h!r} outside (0, 1e-3]")
    grid = _grid(delta, h)
    n = (len(grid) - 1) // 2
    pairs = np.empty((len(grid), 4))
    y0 = (1.0, 0.0, 0.0, 1.0)
    pairs[n] = y0
    for direction in (+1, -1):
        step = direction * h
        y = y0
        for k0 in range(1, n + 1, _CHUNK):
            ks = np.arange(k0, min(k0 + _CHUNK, n + 1))
            t = (direction * (ks - 1)) * h  # as rk4_step's t = direction*(k-1)*h
            stage_t = np.concatenate([t, t + 0.5 * step, t + step])
            qp = [q.tolist() for q in qp_grid(params, spec, stage_t)]
            rows = _rk4_pairs(y, step, stage_t.tolist(), qp)
            pairs[n + direction * ks] = rows
            y = rows[-1]
    bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
    if bad.size:
        raise NonholoError(f"momenta table not finite at {bad.size} of {len(grid)} nodes"
                           " (the configured values are outside floating-point range)")
    return MomentaSolution(params, spec, grid, pairs, delta, h)


def _rk4_pairs(y: tuple, h: float, stage_t: list, qp: list) -> list:
    """RK4 steps of both coefficient pairs y = (f1, g1, f2, g2), on floats.

    ``stage_t`` lists the m step starts, then their midpoints, then their
    ends; ``qp`` holds the four [QP] entries at those times.  The operation
    order is that of ``rk4_step`` with ``momenta_ode_rhs`` as right-hand
    side, so the values are bit-identical to it.  Returns the m new states.
    """
    m = len(stage_t) // 3
    q00, q01, q10, q11 = qp
    half, sixth = 0.5 * h, h / 6.0
    f1, g1, f2, g2 = y
    out = []
    for i in range(m):
        a, b, c, d, t = q00[i], q01[i], q10[i], q11[i], stage_t[i]
        k1f1, k1g1 = _ode_slope(a, b, c, d, t, f1, g1)
        k1f2, k1g2 = _ode_slope(a, b, c, d, t, f2, g2)
        j = m + i
        a, b, c, d, t = q00[j], q01[j], q10[j], q11[j], stage_t[j]
        k2f1, k2g1 = _ode_slope(a, b, c, d, t, f1 + half * k1f1, g1 + half * k1g1)
        k2f2, k2g2 = _ode_slope(a, b, c, d, t, f2 + half * k1f2, g2 + half * k1g2)
        k3f1, k3g1 = _ode_slope(a, b, c, d, t, f1 + half * k2f1, g1 + half * k2g1)
        k3f2, k3g2 = _ode_slope(a, b, c, d, t, f2 + half * k2f2, g2 + half * k2g2)
        j += m
        a, b, c, d, t = q00[j], q01[j], q10[j], q11[j], stage_t[j]
        k4f1, k4g1 = _ode_slope(a, b, c, d, t, f1 + h * k3f1, g1 + h * k3g1)
        k4f2, k4g2 = _ode_slope(a, b, c, d, t, f2 + h * k3f2, g2 + h * k3g2)
        f1 = f1 + sixth * (k1f1 + 2.0 * k2f1 + 2.0 * k3f1 + k4f1)
        g1 = g1 + sixth * (k1g1 + 2.0 * k2g1 + 2.0 * k3g1 + k4g1)
        f2 = f2 + sixth * (k1f2 + 2.0 * k2f2 + 2.0 * k3f2 + k4f2)
        g2 = g2 + sixth * (k1g2 + 2.0 * k2g2 + 2.0 * k3g2 + k4g2)
        out.append((f1, g1, f2, g2))
    return out


def _routh_zeta_p(params: BodyParams, r: float, l: float, gamma3):
    """zeta, P(gamma3) and sqrt(P) of the Routh sphere, on a float or elementwise
    on an array (math.sqrt on floats, the per-step path of ``integrate``).

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


@np.errstate(all="ignore")  # out-of-range bodies (say r = 1e200) give inf/NaN silently, as float calls do
def closed_form_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-3
) -> MomentaSolution:
    """Routh closed forms packaged as a MomentaSolution (exact evaluation)."""
    if spec.kind != "routh":
        raise ValueError("closed forms are available for the routh profile only")
    grid = _grid(delta, h)
    pairs = np.empty((len(grid), 4))
    for k in range(0, len(grid), _CHUNK):  # chunks bound the transient arrays, as in the solve
        p1, p2 = routh_closed_form(params, spec.p1, spec.p2, grid[k : k + _CHUNK])
        pairs[k : k + _CHUNK] = np.column_stack(np.broadcast_arrays(*p1, *p2))
    return MomentaSolution(params, spec, grid, pairs, delta, h, routh_exact=True)


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


def gauge_momentum_fields(solution: MomentaSolution) -> tuple[ScalarField, ScalarField]:
    """The two gauge momenta of ``solution`` as ScalarFields with analytic gradients.

    The tau1-derivatives of the coefficients are ``solution.slope``, so the
    quadruple (f, g, f', g') satisfies the coefficient ODE pointwise and
    Casimir residuals reflect structure rather than interpolation error.
    """

    def make(index: int) -> ScalarField:
        i, j = 2 * index, 2 * index + 1

        def fn(x):
            v = solution.eval(x[2])
            return v[i] * J1_COMPONENT.fn(x) + v[j] * J2_COMPONENT.fn(x)

        def grad(x):
            v, dv = solution.eval(x[2]), solution.slope(x[2])
            out = v[j] * J2_COMPONENT.grad(x)
            out[5] -= v[i]  # + f * grad(j1)
            out[2] += dv[i] * J1_COMPONENT.fn(x) + dv[j] * J2_COMPONENT.fn(x)
            return out

        return ScalarField(fn, grad, name=f"J{index + 1}")

    return make(0), make(1)
