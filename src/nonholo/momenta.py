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

A numeric solution is a Chebyshev series of both pairs on all of [-1, 1],
poles included, normalized to (1, 0) and (0, 1) at tau1 = 0.  [QP] is
real-analytic on a neighbourhood of [-1, 1] for both presets, so a few dozen
coefficients reach rounding.  The solve is integral-form collocation
(Greengard, SIAM J. Numer. Anal. 28, 1991): the unknowns are the values y of
both pairs at the N Chebyshev points of the first kind, which are interior
(``qp_grid``'s strata guard never fires), and they solve y = y0 + S.(A y),
where S integrates the interpolant from the anchor tau1 = 0 and A is the
ODE's matrix at the nodes.  One dense 2N x 2N elimination with partial
pivoting takes both pairs as right-hand sides (``_eliminate``).  The slope
series interpolates A y at the nodes, its coefficients from the discrete
orthogonality of the nodes, and the value series is y0 plus its integral:
N + 1 coefficients whose derivative is the slope series exactly, with none
of the N^2 growth of rounding that differentiating a series brings.  N
starts at 17 and doubles (17, 33, 65) until the last four value
coefficients fall below 1e-13 of the largest (the chop of Aurentz &
Trefethen, ACM TOMS 43, 2017).  A body that needs more (a prolate
ellipsoid, whose profile is singular near the real axis) splits [-1, 1] at
0 into panels chained outward as an initial-value problem: each panel
starts from the value of the one before it at their shared end, and is
bisected, inner half first, until its series chops.  No product of the
solve or of a lookup runs in BLAS or LAPACK (only elementwise arithmetic
and two-operand ``einsum``), so the bits do not depend on the host's BLAS
kernels, and numpy.polynomial, whose import a short-lived process would
pay, is not used.

A run reads one solution, built by ``solution_for``, and asks it for
``eval`` (the values) and ``slope`` (the tau1-derivatives);
``brackets.casimir_residuals`` builds the gradients of the gauge momenta
from the two.  The choice between closed forms and series is the solution's
type, made once there: ``ClosedFormMomenta`` or the numeric
``MomentaSolution``.  Both answer on [-1, 1] within ``DOMAIN_SLACK`` and
look a tau1 array up in one pass (a float tau1, or a 0-d array, is a stack
of one); a tau1 beyond that raises DomainError.  A series is summed by
Clenshaw's recurrence, and its ``slope`` is the derivative of the series,
not the ODE at the values, so the Casimir records measure the solve.  The
closed forms and ``ode_residual`` also take a tau1 array, which the
certificates sweep in one pass.

The (delta, h) grid is only the output grid of the ``momenta`` command
(``grid``): ``grid_half`` checks it, and its GridError names the parameter
at fault.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DomainError, GridError, NonholoError
from .geomforms import qp_grid, qp_matrix
from .phase import BodyParams, momentum_components
from .profile import DOMAIN_SLACK, ProfileSpec
from .smallalg import nan_max

#: Largest (1 - delta)/h, the nodes on each side of tau1 = 0, of a momenta output grid
MAX_HALF_GRID = 1_000_000
#: The collocation sizes a series tries, in order, before its panel is bisected
_SIZES = (17, 33, 65)
#: A series chops where its last four coefficients fall below this share of its largest
_CHOP = 1e-13
#: The narrowest panel (its nodes stay inside geomforms.STRATA_BOUND), and
#: the most panels of a side, done and pending
_MIN_WIDTH, _MAX_PANELS = 2.0 ** -16, 32


def _ode_slope(q00, q01, q10, q11, tau1, f, g) -> tuple:
    """(f', g') from the entries of [QP] at tau1, on floats or elementwise on arrays."""
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


class MomentaSolution:
    """Two coefficient pairs (f1, g1, f2, g2) as Chebyshev series on [-1, 1].

    ``panels`` holds, for each panel [lo, hi] of [-1, 1] in order, the
    tuple (lo, hi, value coefficients, slope coefficients), an (N + 1, 4)
    and an (N, 4) array in the panel's own variable x = (tau1 - mid)/half;
    the slope series is the derivative of the value series in tau1.
    ``grid`` is the (delta, h) output grid of the ``momenta`` command, built
    on first read.
    """

    def __init__(self, params: BodyParams, spec: ProfileSpec, delta: float, h: float, panels=()) -> None:
        grid_half(delta, h)
        self.params, self.spec, self.panels, self._delta_h = params, spec, tuple(panels), (delta, h)
        self._breaks = np.array([hi for _, hi, _, _ in self.panels[:-1]])

    @cached_property
    def grid(self) -> np.ndarray:
        return _grid(*self._delta_h)

    def eval(self, tau1) -> np.ndarray:
        """Return (f1, g1, f2, g2) at tau1, or their (n, 4) rows at a tau1 array.

        Raises:
            DomainError: at the first tau1 off [-1, 1] by more than DOMAIN_SLACK.
        """
        return self._lookup(self._values, tau1)

    def slope(self, tau1) -> np.ndarray:
        """Return (f1', g1', f2', g2') at tau1, or their (n, 4) rows at a tau1
        array; raises DomainError where ``eval`` does."""
        return self._lookup(self._slopes, tau1)

    @np.errstate(all="ignore")  # out-of-range bodies give inf/NaN silently, as float arithmetic does
    def _lookup(self, body, tau1) -> np.ndarray:
        """``body`` at each element of tau1 in one pass, a float tau1 as a
        stack of one; a NaN tau1 gives a NaN row."""
        t = np.asarray(tau1, dtype=float)
        flat = t.reshape(-1)
        size = np.abs(flat)
        # fmax skips a NaN, whose row is NaN.  A boolean any() here raised a
        # Routh simulate's peak RSS by 0.1 MB; a run's drift report already
        # makes float reductions.
        if np.fmax.reduce(size, initial=0.0) > 1.0 + DOMAIN_SLACK:
            raise DomainError(f"tau1={float(flat[np.argmax(size > 1.0 + DOMAIN_SLACK)])!r} outside [-1, 1]")
        rows = body(flat)
        return rows[0] if t.ndim == 0 else rows

    def _values(self, t: np.ndarray) -> np.ndarray:
        return self._sum(t, 2)

    def _slopes(self, t: np.ndarray) -> np.ndarray:
        return self._sum(t, 3)

    def _sum(self, t: np.ndarray, which: int) -> np.ndarray:
        """The series ``panels[k][which]`` of each element's panel at t."""
        if len(self.panels) == 1:
            return _clenshaw(self.panels[0][which], t)
        at, out = np.searchsorted(self._breaks, t), np.empty((len(t), 4))
        for k, panel in enumerate(self.panels):
            lo, hi, mine = *panel[:2], at == k
            out[mine] = _clenshaw(panel[which], (t[mine] - 0.5 * (lo + hi)) / (0.5 * (hi - lo)))
        return out


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


@np.errstate(all="ignore")  # a non-finite series is raised as an error instead
def solve_momenta(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """Solve the coefficient ODE as Chebyshev series on [-1, 1] (see the
    module docstring), from the pairs (1, 0) and (0, 1) at tau1 = 0; (delta,
    h) is the solution's output ``grid``.

    Raises:
        ValueError: if ``grid_half`` refuses (delta, h).
        NonholoError: if the values at the nodes of a collocation are not
            finite, or a panel of width ``_MIN_WIDTH`` (or a side's
            ``_MAX_PANELS``-th) does not chop.
    """
    grid_half(delta, h)
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    whole = _collocate(params, spec, -1.0, 1.0, 0.0, y0)
    if whole is not None:
        panels = [(-1.0, 1.0, *whole)]
    else:
        panels = _side(params, spec, y0, -1.0)[::-1] + _side(params, spec, y0, 1.0)
    return MomentaSolution(params, spec, delta, h, panels)


def _side(params: BodyParams, spec: ProfileSpec, y0: np.ndarray, end: float) -> list:
    """The panels of [0, end] as (lo, hi, value and slope coefficients), from
    tau1 = 0 outward: each starts from the value of the one before it at
    their shared end (``y0`` at 0), and is halved, inner half first, until
    its series chops."""
    panels, inner, edges = [], 0.0, [end]  # the outer ends of the pending panels, nearest last
    while edges:
        outer = edges[-1]
        lo, hi = sorted((inner, outer))
        series = _collocate(params, spec, lo, hi, math.copysign(1.0, -end), y0)
        if series is None:
            if hi - lo <= _MIN_WIDTH or len(panels) + len(edges) >= _MAX_PANELS:
                raise NonholoError(f"momenta series does not converge on [{lo!r}, {hi!r}]"
                                   " (the profile is singular too close to the real axis)")
            edges.append(0.5 * (inner + outer))
            continue
        panels.append((lo, hi, *series))
        y0 = _clenshaw(series[0], np.array([math.copysign(1.0, end)]))[0]
        inner = edges.pop()
    return panels


def _collocate(params: BodyParams, spec: ProfileSpec, lo: float, hi: float, x0: float, y0: np.ndarray):
    """Both pairs as series on [lo, hi] from their values ``y0`` (f1, g1, f2,
    g2) at the point x0 (-1, 0 or 1) of the panel's variable x = (tau1 -
    mid)/half: the value and slope coefficients at the first size of
    ``_SIZES`` whose series chops, else None.  The slope series interpolates
    A y at the nodes, and the value series is y0 plus its integral from x0,
    so each is the other's derivative or integral exactly, and no
    differentiation multiplies the rounding.  NonholoError if the values at
    the nodes, or the coefficients, are not finite."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for n in _SIZES:
        x, to_coefficients, to_integral, integral = _chebyshev(n, x0)
        t = mid + half * x
        q00, q01, q10, q11 = qp_grid(params, spec, t)
        a = (t * q00 - q01, t * q10 - q11, q00, q10)  # A = [[a0, a1], [a2, a3]]: y' = A y
        system = np.empty((2 * n, 2 * n))
        for i in range(2):
            for j in range(2):
                system[i * n:(i + 1) * n, j * n:(j + 1) * n] = (-half) * integral * a[2 * i + j]
        system[np.arange(2 * n), np.arange(2 * n)] += 1.0
        rhs = np.repeat(y0.reshape(2, 2).T, n, axis=0)  # the rows (f1, f2) n times, then (g1, g2)
        y = _eliminate(system, rhs)
        (f1, f2), (g1, g2) = y[:n].T, y[n:].T
        slopes = np.column_stack([a[0] * f1 + a[1] * g1, a[2] * f1 + a[3] * g1,  # A y of each pair at the nodes
                                  a[0] * f2 + a[1] * g2, a[2] * f2 + a[3] * g2])
        dc = np.einsum("kj,jc->kc", to_coefficients, slopes)
        c = np.einsum("kj,jc->kc", to_integral, half * slopes)
        c[0] += y0
        finite = np.isfinite(y).all(axis=1)
        bad = np.count_nonzero(~(finite[:n] & finite[n:]))
        # a non-finite coefficient spoils the series at every node
        if bad or not (np.isfinite(c).all() and np.isfinite(dc).all()):
            raise NonholoError(f"momenta table not finite at {bad or n} of {n} nodes"
                               " (the configured values are outside floating-point range)")
        if np.max(np.abs(c[-4:])) <= _CHOP * np.max(np.abs(c)):
            return c, dc
    return None


def _chebyshev(n: int, x0: float) -> tuple:
    """The n Chebyshev points x_j = cos(pi (2j + 1)/(2n)) of the first kind,
    the (n, n) map of values there to the coefficients of their interpolant,
    the (n + 1, n) map of the same values to the coefficients of the
    interpolant's integral from x0 (-1, 0 or 1), and the (n, n) map of them
    to that integral's values at the points.

    T_k(x_j) = cos(pi m/(2n)) with m = k (2j + 1) reduced exactly, mod 4n and
    then by the cosine's evenness to [0, 2n], is taken as sin(pi (n - m)/(2n)),
    an odd function of n - m: no entry carries the rounding of a large angle,
    and T_k(-x) = (-1)^k T_k(x) holds to the bit at the nodes.
    """
    j, k = np.arange(n), np.arange(n + 1)
    m = k * (2 * j[:, None] + 1) % (4 * n)
    cos = np.sin((n - np.minimum(m, 4 * n - m)) * (math.pi / (2 * n)))  # T_k(x_j), k <= n
    to_coefficients = cos[:, :n].T * (2.0 / n)
    to_coefficients[0] *= 0.5
    # the integral's coefficient of T_k: (c_{k-1} - c_{k+1})/(2k), and c_0 - c_2/2 for T_1
    padded = np.zeros((n + 2, n))
    padded[:n] = to_coefficients
    to_integral = np.zeros((n + 1, n))
    to_integral[1] = padded[0] - 0.5 * padded[2]
    to_integral[2:] = (padded[1:n] - padded[3:]) / (2.0 * k[2:, None])
    at_x0 = np.ones(n + 1)  # T_k(x0) by the recurrence, exact for x0 in (-1, 0, 1)
    at_x0[1] = x0
    for q in range(2, n + 1):
        at_x0[q] = 2.0 * x0 * at_x0[q - 1] - at_x0[q - 2]
    to_integral[0] = -np.einsum("k,kj->j", at_x0, to_integral)  # the constant that makes it 0 at x0
    return cos[:, 1].copy(), to_coefficients, to_integral, np.einsum("ik,kj->ij", cos, to_integral)


def _eliminate(m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve m x = r by Gaussian elimination with partial pivoting, in place
    (m and r are overwritten; x is returned in r's buffer), on elementwise
    numpy only: no BLAS or LAPACK call, so no host kernel moves a bit."""
    n = len(m)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if p != k:
            m[[k, p]], r[[k, p]] = m[[p, k]], r[[p, k]]
        f = m[k + 1:, k] / m[k, k]
        m[k + 1:, k + 1:] -= f[:, None] * m[k, k + 1:]
        r[k + 1:] -= f[:, None] * r[k]
    for k in range(n - 1, -1, -1):
        r[k] /= m[k, k]
        r[:k] -= m[:k, k, None] * r[k]
    return r


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (len(x), m) sums of the Chebyshev series of each column of the
    (n, m) coefficients c at each element of x: Clenshaw's recurrence
    b_k = c_k + 2x b_{k+1} - b_{k+2}, one pass over the stack."""
    x = x[:, None]
    x2, b1, b2 = x + x, np.zeros((len(x), c.shape[1])), np.zeros((len(x), c.shape[1]))
    for ck in c[:0:-1]:
        b = x2 * b1
        b -= b2
        b += ck
        b1, b2 = b, b1
    b1 *= x
    b1 -= b2
    b1 += c[0]
    return b1


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
    rate = dp / (2.0 * p)  # each quotient before a product, so no intermediate overflows that the result does not
    return (0.0, 0.0), (du / sq - u / sq * rate, dv / sq - v / sq * rate)


class ClosedFormMomenta(MomentaSolution):
    """The Routh closed forms as a MomentaSolution: exact rows and slopes on
    all of [-1, 1], poles included."""

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
    """Routh closed forms packaged as a MomentaSolution (exact evaluation)
    whose output grid is (delta, h); ValueError if ``grid_half`` refuses it."""
    if spec.kind != "routh":
        raise ValueError("closed forms are available for the routh profile only")
    return ClosedFormMomenta(params, spec, delta, h)


def solution_for(
    params: BodyParams, spec: ProfileSpec, delta: float = 1e-3, h: float = 1e-4
) -> MomentaSolution:
    """The momenta a run reads: the Routh closed forms, else the series solve,
    with the output grid (delta, h) (ValueError if ``grid_half`` refuses it)."""
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
