"""Coefficient ODE for the gauge momenta: closed forms, the Chebyshev series
solve, and the certificates tying one to the other."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonholo import (
    BodyParams,
    ProfileSpec,
    StateGM,
    closed_form_momenta,
    eval_gauge_momenta,
    eval_profile,
    momenta_ode_rhs,
    ode_residual,
    omega_from_M,
    routh_closed_form,
    routh_closed_form_derivative,
    solution_for,
    solve_momenta,
)
from nonholo import geomforms, momenta
from nonholo.errors import DomainError, NonholoError
from nonholo.geomforms import _qp_entries
from nonholo.momenta import MAX_HALF_GRID, _grid, _ode_slope, grid_half
from nonholo.profile import profile_terms
from oracles import float_kinds, gauge_momentum_fields, rk4_pairs, rk4_step_n, rk4_table, same_bits

from conftest import make_states

P0 = BodyParams(m=1.0, I1=2.0, I3=3.0)
P98 = BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8)


def test_routh_pair1_is_constant():
    for t1 in (-0.9, 0.0, 0.7):
        p1, _ = routh_closed_form(P0, 1.0, 0.1, t1)
        assert p1 == (0.1, 1.0)


def test_routh_pair2_frozen():
    _, p2 = routh_closed_form(P0, 1.0, 0.0, 0.0)
    assert p2[0] == pytest.approx(-2.0 / math.sqrt(8.0), rel=1e-15)
    assert p2[1] == 0.0
    _, p2 = routh_closed_form(P98, 1.0, 0.1, 0.0)
    assert p2[0] == pytest.approx(-0.7093135966067884, rel=1e-15)
    assert p2[1] == pytest.approx(-0.035289233662029275, rel=1e-15)


def test_ode_rhs_anchor():
    # For the balanced ball the kernel pair (0, 1) of constants gives a
    # zero first slot and g' = -1/2 at the equator.
    d = momenta_ode_rhs(P0, ProfileSpec.routh(1.0, 0.0), 0.0, (1.0, 0.0))
    assert d[0] == pytest.approx(0.0, abs=1e-15)
    assert d[1] == pytest.approx(-0.5, rel=1e-13)


def test_closed_form_pairs_solve_the_ode():
    spec = ProfileSpec.routh(1.0, 0.1)
    t1 = np.linspace(-0.999, 0.999, 1000)
    pairs = routh_closed_form(P98, 1.0, 0.1, t1)
    slopes = routh_closed_form_derivative(P98, 1.0, 0.1, t1)
    worst = [ode_residual(P98, spec, t1, fg, dfg) for fg, dfg in zip(pairs, slopes)]
    assert worst[0] <= 1e-12  # constants: exactly in the kernel
    assert worst[1] <= 1e-9


def test_non_solution_is_rejected():
    # Negative control: the pair (1, tau1) is not a solution and the
    # residual must say so loudly at a generic point.
    spec = ProfileSpec.routh(1.0, 0.1)
    assert ode_residual(P98, spec, 0.3, (1.0, 0.3), (0.0, 1.0)) > 1e-3


def test_ode_residual_of_an_array_is_the_worst_float_call(ellipsoid_preset, ellipsoid_momenta):
    params, spec = ellipsoid_preset
    t1 = np.linspace(-0.9, 0.9, 41)
    fg = np.array([ellipsoid_momenta.eval(t) for t in t1]).T[:2]
    dfg = (np.cos(t1), t1 * t1)  # not a solution: the residuals differ from node to node
    worst = max(ode_residual(params, spec, float(t), fg[:, k], (dfg[0][k], dfg[1][k])) for k, t in enumerate(t1))
    assert ode_residual(params, spec, t1, fg, dfg) == worst > 1e-3


def test_solver_spans_the_closed_forms():
    # The numeric basis is normalized to the identity at the central node, so
    # it does not equal the closed forms pointwise; it must reproduce them
    # with the constant coefficients read off at tau1 = 0.
    spec = ProfileSpec.routh(1.0, 0.1)
    sol = solve_momenta(P98, spec)
    c1, c2 = routh_closed_form(P98, 1.0, 0.1, 0.0)
    worst = 0.0
    for k in range(0, len(sol.grid), 97):
        t1 = sol.grid[k]
        cf1, cf2 = routh_closed_form(P98, 1.0, 0.1, t1)
        num = sol.eval(t1)
        for coeff, cf in ((c1, cf1), (c2, cf2)):
            worst = max(worst, abs(coeff[0] * num[0] + coeff[1] * num[2] - cf[0]))
            worst = max(worst, abs(coeff[0] * num[1] + coeff[1] * num[3] - cf[1]))
    assert worst <= 1e-9


def test_table_differences_solve_the_ode_inside_the_grid(ellipsoid_preset, ellipsoid_momenta):
    # Central differences of the table's step h = 1e-4 of its values against the ODE at those values.
    (params, spec), sol, h = ellipsoid_preset, ellipsoid_momenta, 1e-4
    t1 = np.linspace(-0.99, 0.99, 67)

    def table(t):
        return np.array([sol.eval(u) for u in t]).T

    values, slopes = table(t1), (table(t1 + h) - table(t1 - h)) / (2 * h)
    worst = max(ode_residual(params, spec, t1, values[i:i + 2], slopes[i:i + 2]) for i in (0, 2))
    assert worst <= 1e-6  # the differences' own O(h^2) error; they read eval only


@pytest.mark.parametrize(
    "params,t1",
    [pytest.param(P98, t1, id=str(t1)) for t1 in (-1.0, -0.73, 0.0, 0.2, 1.0)]
    # P overflows to inf: the rows are (0.1, 1.0, -0.0, 0.0) and the slopes
    # (0.0, 0.0, nan, 0.0), an inf/inf that float arithmetic gives silently
    + [pytest.param(BodyParams(m=1.0, I1=1e308, I3=1e308, grav=9.8), 0.5, id="overflowing-inertia")],
)
def test_closed_form_slope_is_the_closed_form_derivative(params, t1):
    sol = closed_form_momenta(params, ProfileSpec.routh(1.0, 0.1))
    for lookup, form in ((sol.eval, routh_closed_form), (sol.slope, routh_closed_form_derivative)):
        p1, p2 = form(params, 1.0, 0.1, t1)
        assert same_bits(lookup(t1), [*p1, *p2]), form.__name__


def test_slope_refuses_where_eval_does(ellipsoid_momenta):
    # both answer on [-1, 1] within the profile's slack, poles included
    for sol in (ellipsoid_momenta, closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1))):
        assert np.isfinite(sol.slope(np.array([-1.0 - 1e-9, -1.0, 1.0, 1.0 + 1e-9]))).all()
        for tau1 in (1.01, np.array([0.3, -1.0 - 2e-9])):
            with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
                sol.slope(tau1)
            with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
                sol.eval(tau1)


@pytest.mark.parametrize("spec", [ProfileSpec.ellipsoid(2.0, 1.0), ProfileSpec.routh(1.0, 0.1)])
def test_a_0d_array_is_looked_up_as_a_float(spec):
    # a table and the closed forms; a 0-d tau1 off the solution raises as a float does
    sol = solution_for(P98, spec, 1e-2, 1e-3)
    for lookup in (sol.eval, sol.slope):
        assert same_bits(lookup(np.array(0.3)), lookup(0.3))
        assert lookup(np.array(-0.7)).shape == (4,)
        with pytest.raises(DomainError):
            lookup(np.array(1.5))


def test_array_closed_forms_equal_the_float_calls():
    grid = _grid(1e-3, 1e-4)
    for form, lookup in ((routh_closed_form, "eval"), (routh_closed_form_derivative, "slope")):
        p1, p2 = form(P98, 1.0, 0.1, grid)
        rows = np.array([[*q1, *q2] for q1, q2 in (form(P98, 1.0, 0.1, t) for t in grid.tolist())])
        assert np.array_equal(np.column_stack(np.broadcast_arrays(*p1, *p2)), rows), form.__name__
        sol = closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1), 1e-3, 1e-4)
        assert np.array_equal(getattr(sol, lookup)(sol.grid), rows), form.__name__


def test_closed_form_table_is_built_on_first_read():
    # a trajectory reads only eval, and must not pay for the 19,981-node output grid
    for sol in (closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1)), solve_momenta(P98, ProfileSpec.ellipsoid(2.0, 1.0))):
        sol.eval(0.3), sol.slope(-0.7)
        assert "grid" not in vars(sol)
        assert sol.grid is sol.grid and sol.grid.shape == (19981,)


def test_independence_margins(ellipsoid_momenta):
    for sol in (closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1)), ellipsoid_momenta):
        rows = sol.eval(np.linspace(-1.0, 1.0, 2001))
        assert np.min(np.abs(rows[:, 0] * rows[:, 3] - rows[:, 2] * rows[:, 1])) >= 1e-8


def test_solution_grid_bounds():
    sol = solve_momenta(P98, ProfileSpec.routh(1.0, 0.1), delta=1e-2, h=1e-3)
    assert abs(sol.grid[0] + 0.99) <= 1e-3 and abs(sol.grid[-1] - 0.99) <= 1e-3
    assert np.isfinite(sol.eval(0.9999)).all()  # the output grid does not bound the solution
    with pytest.raises(ValueError):
        solve_momenta(P98, ProfileSpec.routh(1.0, 0.1), delta=0.5)
    with pytest.raises(ValueError):
        solve_momenta(P98, ProfileSpec.routh(1.0, 0.1), h=0.01)
    # grid_half is the one check of a grid: every constructor of a solution makes it, naming the parameter at
    # fault in an attribute, so that the message itself stays plain
    for delta, h, name in [(1e-3, -1e-3, "h"), (1e-3, 0.0, "h"), (0.5, 1e-4, "delta"), (1e-3, 0.01, "h")]:
        for build in (solve_momenta, closed_form_momenta, solution_for):
            with pytest.raises(ValueError) as excinfo:
                build(P98, ProfileSpec.routh(1.0, 0.1), delta, h)
            assert excinfo.value.param == name and str(excinfo.value).startswith(f"{name}=")


@pytest.mark.parametrize("h", [1e-300, 1e-7])
def test_grid_size_is_bounded_before_allocation(h):
    # (1 - delta)/h above MAX_HALF_GRID is refused from the quotient alone;
    # no grid of that size is ever built.
    spec = ProfileSpec.routh(1.0, 0.1)
    assert (1.0 - 1e-3) / h > MAX_HALF_GRID
    for build in (solve_momenta, closed_form_momenta):
        with pytest.raises(ValueError, match="nodes per half-grid"):
            build(P98, spec, 1e-3, h)
    assert grid_half(1e-3, 1e-6) == 999_000  # the finest step at the default delta


def test_closed_form_mode_covers_the_poles():
    sol = closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1))
    v = sol.eval(1.0)  # poles included
    assert np.all(np.isfinite(v))
    with pytest.raises(DomainError):
        sol.eval(1.01)


def test_gauge_momenta_anchors():
    spec = ProfileSpec.routh(1.0, 0.1)
    sol = closed_form_momenta(P98, spec)
    state = StateGM(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    j1, _ = eval_gauge_momenta(sol, state)
    assert j1 == pytest.approx(2.7, rel=1e-14)  # l*j1 + r*j2 = -<M, s>

    upright = StateGM(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 3.0]))
    _, j2 = eval_gauge_momenta(sol, upright)
    ev = eval_profile(spec, 1.0)
    om3 = omega_from_M(P98, ev, upright)[2]
    ptau = P98.I1 * P98.I3 + P98.m * P98.I3 * ev.zeta**2  # equatorial term dies at the pole
    assert j2 == pytest.approx(math.sqrt(ptau) * om3, rel=1e-9)
    assert j2 == pytest.approx(2.9034462281915951, rel=1e-12)

    zero = StateGM(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    assert eval_gauge_momenta(sol, zero) == (0.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_momentum_fields_gradients(seed):
    spec = ProfileSpec.routh(1.0, 0.1)
    sol = closed_form_momenta(P98, spec)
    f1, f2 = gauge_momentum_fields(sol)
    from nonholo.smallalg import grad_fd

    (state,) = make_states(seed, 1)
    x = state.packed()
    for f in (f1, f2):
        assert np.max(np.abs(f.grad(x) - grad_fd(f.fn, x))) <= 1e-7


# ---------------------------------------------------------------------------
# the series against its oracles: the closed forms, the RK4 march it
# replaced, mpmath's Taylor solve, and the identities the pairs obey

NONUNIT = BodyParams(m=1.3, I1=2.3, I3=3.7, grav=9.8)
#: Bodies of both presets; the last ellipsoids need more than 65 points and
#: split [-1, 1] into panels
SERIES_BODIES = {
    "routh": (P98, ProfileSpec.routh(1.0, 0.1)),
    "routh-nonunit": (NONUNIT, ProfileSpec.routh(1.5, 0.2)),
    "routh-balanced": (P0, ProfileSpec.routh(1.0, 0.0)),
    "routh-lean": (P98, ProfileSpec.routh(2.0, -0.5)),
    "ellipsoid": (P98, ProfileSpec.ellipsoid(2.0, 1.0)),
    "ellipsoid-3-1": (NONUNIT, ProfileSpec.ellipsoid(3.0, 1.0)),
    "balanced": (P98, ProfileSpec.ellipsoid(1.5, 1.5)),
    "prolate": (P98, ProfileSpec.ellipsoid(0.5, 3.0)),
    "prolate-panels": (P98, ProfileSpec.ellipsoid(0.05, 3.0)),
}
ROUTH_BODIES = sorted(name for name, (_, spec) in SERIES_BODIES.items() if spec.kind == "routh")
ELLIPSOID_BODIES = sorted(name for name, (_, spec) in SERIES_BODIES.items() if spec.kind == "ellipsoid")
#: [-1, 1], both poles included
WHOLE = np.linspace(-1.0, 1.0, 4001)


@pytest.fixture(scope="module")
def series():
    return {name: solve_momenta(*body) for name, body in SERIES_BODIES.items()}


@pytest.mark.parametrize("name", ROUTH_BODIES)
def test_the_routh_series_spans_the_closed_forms_up_to_the_poles(series, name):
    from nonholo.certify import span_deviation

    params, spec = SERIES_BODIES[name]
    _, worst = span_deviation(params, spec, WHOLE, series[name].eval(WHOLE))
    assert worst <= 1e-13


def test_solve_is_the_two_sided_rk4_step_solve(series):
    # the series against the RK4 march it replaced (tests/oracles.py), both
    # halves stepped, at the march's 19,981 nodes; measured 2.2e-15 to 1.3e-14
    for name, body in SERIES_BODIES.items():
        grid, pairs = rk4_table(*body, 1e-3, 1e-4)
        assert np.max(np.abs(series[name].eval(grid) - pairs)) <= 1e-12, name


def _mpmath_solution(params, spec, points):
    """The rows (f1, g1, f2, g2) at ``points`` by mpmath's Taylor-series ODE
    solver at 25 digits, on the package's [QP] bodies run on mpf numbers;
    the lower half solves the reflected ODE z(s) = y(-s)."""
    import mpmath

    mpmath.mp.dps = 25

    def slope(t, y):
        q00, q01, q10, q11 = _qp_entries(params, t, *profile_terms(spec, t, mpmath.sqrt))
        return [v for f, g in (y[:2], y[2:]) for v in (t * (q00 * f + q10 * g) - (q01 * f + q11 * g),
                                                       q00 * f + q10 * g)]

    upper = mpmath.odefun(slope, 0, [1, 0, 0, 1])
    lower = mpmath.odefun(lambda s, z: [-v for v in slope(-s, z)], 0, [1, 0, 0, 1])
    return np.array([[float(v) for v in (upper(t) if t >= 0 else lower(-t))] for t in points])


def test_the_series_is_mpmath_s_taylor_solve_up_to_the_poles(series):
    points = [-1.0, -0.95, -0.7, -0.3, 0.0, 0.3, 0.5, 0.7, 0.95, 1.0]
    expected = _mpmath_solution(*SERIES_BODIES["ellipsoid"], points)
    assert np.max(np.abs(series["ellipsoid"].eval(np.array(points)) - expected)) <= 1e-14


@pytest.mark.parametrize("name", ELLIPSOID_BODIES)
def test_an_ellipsoid_series_keeps_the_equatorial_parity(series, name):
    # (f1, g1, f2, g2)(-tau1) = (f1, -g1, -f2, g2)(tau1): the nodes, the
    # profile and [QP] keep the parity to the bit; the elimination's pivoting
    # does not, which leaves a few ulps of the largest value (measured: 1 to
    # 6 on these bodies).
    rows = series[name].eval(WHOLE)
    mirrored = series[name].eval(-WHOLE) * np.array([1.0, -1.0, -1.0, 1.0])
    assert np.max(np.abs(mirrored - rows)) <= 8 * np.spacing(np.max(np.abs(rows)))


def _chaplygin_p(params, spec, tau1):
    """P(tau1) = I1*I3 + m*(I1*rho^2*(1 - tau1^2) + I3*zeta^2), whose
    P^(-1/2) is Chaplygin's invariant density."""
    rho, zeta, *_ = profile_terms(spec, tau1, np.sqrt)
    return params.I1 * params.I3 + params.m * (params.I1 * rho * rho * (1.0 - tau1 * tau1)
                                               + params.I3 * zeta * zeta)


_bodies = st.builds(
    BodyParams,
    m=st.floats(0.1, 10.0),
    I1=st.floats(0.1, 10.0),
    I3=st.floats(0.1, 10.0),
    grav=st.sampled_from([0.0, 9.8]),
)
_specs = st.one_of(
    st.builds(lambda b, c: ProfileSpec.ellipsoid(b, c), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    st.builds(lambda r, lean: ProfileSpec.routh(r, lean * r), st.floats(0.1, 10.0), st.floats(-0.99, 0.99)),
)


@settings(max_examples=40, deadline=None)
@given(params=_bodies, spec=_specs)
@example(params=P98, spec=ProfileSpec.ellipsoid(0.05, 3.0))  # panels
def test_the_wronskian_is_chaplygin_s_multiplier(params, spec):
    # Liouville: the ODE's trace is -(log P)'/2, so W = f1*g2 - f2*g1 is
    # W(0)*sqrt(P(0)/P(tau1)), and W(0) = 1.  A column's rounding is relative
    # to its largest value, and the pairs grow to 7e5 on some bodies while W
    # stays near 1, so the residual is taken against the products of each
    # column's largest value and the other factor: at most 3.6e-14 of that
    # over the corners of the drawn box, 6e-16 on the bench ellipsoid.
    rows = solve_momenta(params, spec).eval(WHOLE)
    (f1, g1, f2, g2), (big_f1, big_g1, big_f2, big_g2) = rows.T, np.max(np.abs(rows), axis=0)
    residual = (f1 * g2 - f2 * g1) * np.sqrt(_chaplygin_p(params, spec, WHOLE) / _chaplygin_p(params, spec, 0.0)) - 1.0
    scale = big_f1 * np.abs(g2) + np.abs(f1) * big_g2 + big_f2 * np.abs(g1) + np.abs(f2) * big_g1
    assert np.max(np.abs(residual) / scale) <= 1e-12


def test_panels_chain_outward_from_the_equator(series):
    # A body that needs more than 65 points: each panel starts from the
    # value of its inner neighbour at their shared end.
    sol = series["prolate-panels"]
    ends = [(lo, hi) for lo, hi, *_ in sol.panels]
    assert len(ends) > 2 and ends[0][0] == -1.0 and ends[-1][1] == 1.0
    assert all(a[1] == b[0] for a, b in zip(ends, ends[1:])) and 0.0 in [hi for _, hi in ends]
    for (_, hi, left, _), (_, _, right, _) in zip(sol.panels, sol.panels[1:]):
        from_left = np.polynomial.chebyshev.chebval(1.0, left)
        from_right = np.polynomial.chebyshev.chebval(-1.0, right)
        assert np.max(np.abs(from_left - from_right)) <= 8 * np.spacing(np.max(np.abs(from_left))), hi
    assert [len(dc) for *_, dc in sol.panels] == [33, 65, 65, 33]


@pytest.mark.parametrize("name,sizes", [("routh", [33]), ("ellipsoid", [65]), ("balanced", [33]),
                                        ("prolate", [65, 65])])
def test_a_series_takes_the_first_size_that_chops(series, name, sizes):
    # the sizes try 17, 33, 65; the last four value coefficients of the one
    # kept (N + 1 of them, the integral of N slope coefficients) are below
    # 1e-13 of the largest
    sol = series[name]
    assert [len(dc) for *_, dc in sol.panels] == sizes
    for *_, c, dc in sol.panels:
        assert len(c) == len(dc) + 1 and np.max(np.abs(c[-4:])) <= 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("name", ["ellipsoid", "prolate-panels", "routh"])
def test_eval_and_slope_are_the_series_and_its_derivative(series, name):
    # numpy.polynomial's chebval, chebder and chebint on each panel, as
    # oracles (measured: the two Clenshaw sums agree to 5 ulps of the
    # coefficients' sum, chebder finds the slope series to 3.6 ulps and
    # chebint inverts it to 2)
    cheb = np.polynomial.chebyshev
    sol = series[name]
    for lo, hi, c, dc in sol.panels:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = np.linspace(lo, hi, 503)[1:-1]  # an end may read the neighbouring panel
        x = (t - mid) / half
        assert np.max(np.abs(sol.eval(t) - cheb.chebval(x, c).T)) <= 8 * np.spacing(np.max(np.abs(c).sum(axis=0)))
        assert np.max(np.abs(cheb.chebder(c) / half - dc)) <= 8 * np.spacing(np.max(np.abs(dc)))
        assert np.max(np.abs(cheb.chebint(dc, scl=half)[1:] - c[1:])) <= 8 * np.spacing(np.max(np.abs(c)))
        assert np.max(np.abs(sol.slope(t) - cheb.chebval(x, dc).T)) <= 8 * np.spacing(np.max(np.abs(dc).sum(axis=0)))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0, allow_nan=False))
def test_table_slope_is_the_ode_rhs_at_eval(series, t1):
    # The slope is the derivative of the series, not the ODE at the values:
    # the two agree to the solve's accuracy, measured 5.5e-16 to 5.5e-14 on
    # [-1, 1] over these bodies (the slope series interpolates the ODE at
    # the nodes, so no differentiation multiplies its rounding).
    t1 = min(max(t1, -geomforms.STRATA_BOUND), geomforms.STRATA_BOUND)  # where qp_matrix answers
    for name, (params, spec) in SERIES_BODIES.items():
        v = series[name].eval(t1)
        rhs = [*momenta_ode_rhs(params, spec, t1, v[:2]), *momenta_ode_rhs(params, spec, t1, v[2:])]
        assert np.max(np.abs(series[name].slope(t1) - rhs)) <= 1e-13, name


@pytest.mark.parametrize("name", ["ellipsoid", "prolate-panels", "routh"])
def test_the_elimination_is_lapack_s_solve_to_a_few_ulps(monkeypatch, name):
    # The collocation systems of a solve, solved again by LAPACK's dgesv:
    # both are partial-pivot eliminations, in different orders of operations.
    systems, eliminate = [], momenta._eliminate

    def recording(m, r):
        systems.append((m.copy(), r.copy()))
        return eliminate(m, r)

    monkeypatch.setattr(momenta, "_eliminate", recording)
    solve_momenta(*SERIES_BODIES[name])
    assert systems
    for m, r in systems:
        expected = np.linalg.solve(m, r)
        assert np.max(np.abs(eliminate(m, r) - expected)) <= 16 * np.spacing(np.max(np.abs(expected)))


@pytest.mark.parametrize("which", ["default-table", "coarse-table", "panels", "closed-forms"])
def test_array_lookup_is_the_per_row_lookup(ellipsoid_preset, ellipsoid_momenta, series, which):
    # A float is a stack of one, so each row of an array lookup has its bits;
    # the poles, a break between panels, signed zeros and NaN included.  The
    # output grid does not change the series.
    sol = {
        "default-table": ellipsoid_momenta,
        "coarse-table": solve_momenta(*ellipsoid_preset, 0.1, 1e-3),
        "panels": series["prolate-panels"],
        "closed-forms": closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1)),
    }[which]
    rng = np.random.default_rng(3)
    tau1 = np.array([-1.0 - 1e-9, -1.0, -0.5, 0.0, -0.0, 0.5, 1.0, 1.0 + 1e-9, math.nan]
                    + rng.uniform(-1.0, 1.0, 500).tolist())
    for name in ("eval", "slope"):
        lookup = getattr(sol, name)
        rows = lookup(tau1)
        assert rows.shape == (len(tau1), 4)
        assert same_bits(rows, [lookup(float(t)) for t in tau1]), name
        assert np.isnan(rows[-501, 2:]).all() and np.isfinite(np.delete(rows, -501, axis=0)).all()  # pair1 of Routh is constant


def _solve_with_rk4_step(params, spec, delta, h):
    """The coefficient ODE stepped with the generic RK4 step + momenta_ode_rhs: one scalar
    [QP] evaluation per pair and stage."""
    grid = _grid(delta, h)
    n = (len(grid) - 1) // 2
    pairs = np.empty((len(grid), 4))

    def f(t, y):
        return np.concatenate([momenta_ode_rhs(params, spec, t, y[:2]), momenta_ode_rhs(params, spec, t, y[2:])])

    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    pairs[n] = y0
    for direction in (+1, -1):
        y = y0.copy()
        for k in range(1, n + 1):
            y = rk4_step_n(f, direction * (k - 1) * h, y, direction * h)
            pairs[n + direction * k] = y
    return grid, pairs


SOLVER_SPECS = {
    "routh": ProfileSpec.routh(1.0, 0.1),
    "ellipsoid": ProfileSpec.ellipsoid(2.0, 1.0),
    "balanced-ellipsoid": ProfileSpec.ellipsoid(1.5, 1.5),
}


@pytest.mark.parametrize(
    "name, delta, h",
    [
        (name, delta, h)
        for name in SOLVER_SPECS
        for delta, h in ((1e-2, 1e-3), (1e-3, 3.7e-4))  # 3.7e-4 does not divide 1 - delta
    ]
    + [("ellipsoid", 1e-3, 1e-4)],  # the default grid
)
def test_solver_matches_rk4_step_bit_for_bit(name, delta, h):
    # The RK4 march of tests/oracles.py, which the series is held to, is one
    # generic rk4_step_n per step, in chunks of stage times.
    grid, pairs = _solve_with_rk4_step(P98, SOLVER_SPECS[name], delta, h)
    oracle_grid, oracle_pairs = rk4_table(P98, SOLVER_SPECS[name], delta, h, chunk=97)
    assert same_bits(oracle_grid, grid) and same_bits(oracle_pairs, pairs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unrolled_coefficient_steps_are_rk4_step_bit_for_bit(data):
    # m steps of both pairs from drawn [QP] entries: the written-out stages
    # against the generic RK4 step with _ode_slope as right-hand side, step by step.
    m, fl = data.draw(st.integers(1, 3)), data.draw(float_kinds)
    y = tuple(data.draw(st.lists(fl, min_size=4, max_size=4)))
    h = data.draw(fl)
    starts = data.draw(st.lists(fl, min_size=m, max_size=m))
    stage_t = starts + [t + 0.5 * h for t in starts] + [t + h for t in starts]
    qp = [data.draw(st.lists(fl, min_size=3 * m, max_size=3 * m)) for _ in range(4)]
    rows = rk4_pairs(y, h, stage_t, qp)
    expected = []
    for i, t in enumerate(starts):
        entries = iter([[q[j] for q in qp] for j in (i, m + i, m + i, 2 * m + i)])

        def f(t, y):
            q = next(entries)
            return [*_ode_slope(*q, t, y[0], y[1]), *_ode_slope(*q, t, y[2], y[3])]

        y = rk4_step_n(f, t, y, h)
        expected.append(y)
    assert same_bits(rows, expected)


@pytest.mark.parametrize(
    "params,spec",
    [
        (BodyParams(m=1.0, I1=1e308, I3=1e308, grav=9.8), ProfileSpec.routh(1.0, 0.1)),
        (BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8), ProfileSpec.ellipsoid(1e-300, 1e-300)),
        (BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8), ProfileSpec.ellipsoid(1e300, 1e-300)),
    ],
    ids=["overflowing-inertia", "underflowing-axes", "disparate-axes"],
)
def test_a_non_finite_table_is_an_error(params, spec):
    # counted at the collocation nodes of the first size tried
    with pytest.raises(NonholoError, match=re.escape("momenta table not finite at 17 of 17 nodes")):
        solve_momenta(params, spec, 1e-2, 1e-3)


def test_a_series_that_does_not_chop_on_the_narrowest_panel_is_an_error():
    # a nearly flat disk: its profile is singular 1.7e-10 past the poles,
    # closer than a panel of width 2**-16 resolves
    with pytest.raises(NonholoError, match=r"does not converge on \[-1.0, -0.9999847412109375\]"):
        solve_momenta(P98, ProfileSpec.ellipsoid(3.0, 1e-9))
