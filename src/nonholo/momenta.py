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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brackets import J1_COMPONENT, J2_COMPONENT, ScalarField
from .errors import DomainError
from .geomforms import qp_matrix
from .phase import BodyParams, StateGM, momentum_components
from .profile import ProfileSpec
from .smallalg import rk4_step


def momenta_ode_rhs(
    params: BodyParams, spec: ProfileSpec, tau1: float, fg
) -> np.ndarray:
    """Right-hand side (f', g') of the coefficient ODE at tau1."""
    qp = qp_matrix(params, spec, tau1)
    f, g = float(fg[0]), float(fg[1])
    qf = qp[0, 0] * f + qp[1, 0] * g   # [QP]^T . (f, g)
    qg = qp[0, 1] * f + qp[1, 1] * g
    return np.array([tau1 * qf - qg, qf])


@dataclass
class MomentaSolution:
    """Two coefficient pairs tabulated over a tau1 grid.

    ``pairs[k] = (f1, g1, f2, g2)`` at ``grid[k]``.  When ``routh_exact``
    is set the evaluation bypasses the table and uses the closed forms
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

        Raises:
            DomainError: if tau1 falls outside the grid (tabulated mode)
                or beyond [-1, 1] (closed-form mode).
        """
        t1 = float(tau1)
        if self.routh_exact:
            if abs(t1) > 1.0 + 1e-9:
                raise DomainError(f"tau1={t1!r} outside [-1, 1]")
            p1, p2 = routh_closed_form(self.params, self.spec.p1, self.spec.p2, t1)
            return np.array([p1[0], p1[1], p2[0], p2[1]])
        if t1 < self.grid[0] - 1e-12 or t1 > self.grid[-1] + 1e-12:
            raise DomainError(
                f"tau1={t1!r} outside the momenta grid [{self.grid[0]!r}, {self.grid[-1]!r}]"
            )
        return np.array(
            [np.interp(t1, self.grid, self.pairs[:, i]) for i in range(4)]
        )

    def independence(self) -> np.ndarray:
        """Determinant f1*g2 - f2*g1 per grid node."""
        return self.pairs[:, 0] * self.pairs[:, 3] - self.pairs[:, 2] * self.pairs[:, 1]

    def min_independence(self) -> float:
        """Smallest |det| over the grid (reported by checks, never assumed)."""
        return float(np.min(np.abs(self.independence())))


def _grid(delta: float, h: float) -> np.ndarray:
    n = int(math.floor((1.0 - delta) / h + 1e-9))
    return np.arange(-n, n + 1) * h


def solve_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """Integrate the coefficient ODE outward from tau1 = 0 with RK4.

    Initial pairs at tau1 = 0 are (1, 0) and (0, 1).  Grid spans
    +-(1 - delta) with step h.

    Raises:
        ValueError: if delta is outside [1e-6, 0.1] or h > 1e-3.
    """
    if not 1e-6 <= delta <= 0.1:
        raise ValueError(f"delta={delta!r} outside [1e-6, 0.1]")
    if not 0 < h <= 1e-3:
        raise ValueError(f"h={h!r} outside (0, 1e-3]")
    grid = _grid(delta, h)
    n = (len(grid) - 1) // 2
    pairs = np.empty((len(grid), 4))

    def f(t, y):
        return np.concatenate(
            [momenta_ode_rhs(params, spec, t, y[:2]), momenta_ode_rhs(params, spec, t, y[2:])]
        )

    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    pairs[n] = y0
    for direction in (+1, -1):
        y = y0.copy()
        for k in range(1, n + 1):
            t = direction * (k - 1) * h
            y = rk4_step(f, t, y, direction * h)
            pairs[n + direction * k] = y
    return MomentaSolution(params, spec, grid, pairs, delta, h)


def _routh_zeta_p(params: BodyParams, r: float, l: float, gamma3: float) -> tuple[float, float]:
    """zeta and P(gamma3) of the Routh sphere.

    Written out here rather than taken from the profile module: the closed
    forms are the independent oracle that the numeric path is checked against.
    """
    zeta = -r * gamma3 + l
    p = params.I1 * params.I3 + params.m * (
        params.I1 * r * r * (1.0 - gamma3 * gamma3) + params.I3 * zeta * zeta
    )
    return zeta, p


def routh_closed_form(
    params: BodyParams, r: float, l: float, gamma3: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two closed-form coefficient pairs of the Routh sphere at gamma3."""
    zeta, p = _routh_zeta_p(params, r, l, gamma3)
    sq = math.sqrt(p)
    return (l, r), (-(params.I1 + params.m * l * zeta) / sq, -params.m * r * zeta / sq)


def routh_closed_form_derivative(
    params: BodyParams, r: float, l: float, gamma3: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """gamma3-derivatives of the closed-form pairs (pair1 is constant)."""
    zeta, p = _routh_zeta_p(params, r, l, gamma3)
    sq = math.sqrt(p)
    dp = 2.0 * params.m * (-params.I1 * r * r * gamma3 - r * params.I3 * zeta)
    u = -(params.I1 + params.m * l * zeta)
    du = params.m * l * r
    v = -params.m * r * zeta
    dv = params.m * r * r
    return (0.0, 0.0), (du / sq - u * dp / (2.0 * p * sq), dv / sq - v * dp / (2.0 * p * sq))


def closed_form_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-3
) -> MomentaSolution:
    """Routh closed forms packaged as a MomentaSolution (exact evaluation)."""
    if spec.kind != "routh":
        raise ValueError("closed forms are available for the routh profile only")
    grid = _grid(delta, h)
    pairs = np.empty((len(grid), 4))
    for k, t in enumerate(grid):
        p1, p2 = routh_closed_form(params, spec.p1, spec.p2, float(t))
        pairs[k] = (p1[0], p1[1], p2[0], p2[1])
    return MomentaSolution(params, spec, grid, pairs, delta, h, routh_exact=True)


def eval_gauge_momenta(solution: MomentaSolution, state: StateGM) -> tuple[float, float]:
    """Evaluate (J1, J2) = (f_i*j1 + g_i*j2) at a state."""
    f1, g1, f2, g2 = solution.eval(float(state.gamma[2]))
    j1, j2 = momentum_components(state)
    return f1 * j1 + g1 * j2, f2 * j1 + g2 * j2


@dataclass(frozen=True)
class CoefficientPair:
    """A differentiable coefficient pair: values and tau1-derivatives."""

    value: Callable[[float], tuple[float, float]]
    derivative: Callable[[float], tuple[float, float]]
    name: str = ""


def routh_pair(params: BodyParams, spec: ProfileSpec, index: int) -> CoefficientPair:
    """Closed-form pair 0 or 1 of a routh ProfileSpec as a CoefficientPair."""
    if spec.kind != "routh":
        raise ValueError("routh_pair needs a routh profile")
    r, l = spec.p1, spec.p2

    def value(t1, i=index):
        return routh_closed_form(params, r, l, t1)[i]

    def derivative(t1, i=index):
        return routh_closed_form_derivative(params, r, l, t1)[i]

    return CoefficientPair(value, derivative, name=f"routh-pair{index + 1}")


def grid_pair(solution: MomentaSolution, index: int) -> CoefficientPair:
    """Tabulated pair as a CoefficientPair; derivative by central FD of step h."""

    def value(t1, i=index):
        v = solution.eval(t1)
        return v[2 * i], v[2 * i + 1]

    def derivative(t1, i=index):
        h = solution.h
        vp = solution.eval(t1 + h)
        vm = solution.eval(t1 - h)
        return (vp[2 * i] - vm[2 * i]) / (2 * h), (vp[2 * i + 1] - vm[2 * i + 1]) / (2 * h)

    return CoefficientPair(value, derivative, name=f"grid-pair{index + 1}")


def ode_residual(
    params: BodyParams, spec: ProfileSpec, pair: CoefficientPair, tau1: float
) -> float:
    """max-norm of pair.derivative(tau1) minus the ODE right-hand side."""
    rhs = momenta_ode_rhs(params, spec, tau1, pair.value(tau1))
    d = pair.derivative(tau1)
    return max(abs(d[0] - rhs[0]), abs(d[1] - rhs[1]))


def gauge_momentum_fields(
    params: BodyParams, spec: ProfileSpec, solution: MomentaSolution
) -> tuple[ScalarField, ScalarField]:
    """The two gauge momenta as ScalarFields with analytic gradients.

    The tau1-derivatives of the coefficients are taken from the ODE itself
    (closed-form derivatives in routh-exact mode), so the resulting
    quadruple (f, g, f', g') satisfies the coefficient ODE pointwise and
    Casimir residuals reflect structure rather than interpolation error.
    """

    def make(index: int) -> ScalarField:
        def coeffs(t1):
            v = solution.eval(t1)
            return v[2 * index], v[2 * index + 1]

        def fn(x):
            f, g = coeffs(x[2])
            return f * J1_COMPONENT.fn(x) + g * J2_COMPONENT.fn(x)

        def grad(x):
            f, g = coeffs(x[2])
            if solution.routh_exact:
                dp = routh_closed_form_derivative(
                    params, solution.spec.p1, solution.spec.p2, x[2]
                )[index]
            else:
                dp = momenta_ode_rhs(params, spec, x[2], (f, g))
            out = g * J2_COMPONENT.grad(x)
            out[5] -= f  # + f * grad(j1)
            out[2] += dp[0] * J1_COMPONENT.fn(x) + dp[1] * J2_COMPONENT.fn(x)
            return out

        return ScalarField(fn, grad, name=f"J{index + 1}")

    return make(0), make(1)
