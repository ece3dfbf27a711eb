"""Coefficient ODE for the gauge momenta: closed forms, the tabulated
solver, and the certificates tying one to the other."""
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
from nonholo import momenta
from nonholo.errors import DomainError, NonholoError
from nonholo.geomforms import qp_grid
from nonholo.momenta import MAX_HALF_GRID, _grid, _ode_slope, _rk4_pairs, grid_half
from oracles import float_kinds, gauge_momentum_fields, rk4_step_n, same_bits

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
    assert worst <= 1e-6  # linear interpolation leaves O(h) kinks in the derivative


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


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.999, 0.999, allow_nan=False))
def test_table_slope_is_the_ode_rhs_at_eval(ellipsoid_preset, ellipsoid_momenta, t1):
    params, spec = ellipsoid_preset
    v = ellipsoid_momenta.eval(t1)
    rhs = [*momenta_ode_rhs(params, spec, t1, v[:2]), *momenta_ode_rhs(params, spec, t1, v[2:])]
    assert np.array_equal(ellipsoid_momenta.slope(t1), rhs)


def test_slope_refuses_where_eval_does(ellipsoid_momenta):
    with pytest.raises(DomainError):
        ellipsoid_momenta.slope(0.9999)
    with pytest.raises(DomainError):
        closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1)).slope(1.01)


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
    for form in (routh_closed_form, routh_closed_form_derivative):
        p1, p2 = form(P98, 1.0, 0.1, grid)
        rows = np.array([[*q1, *q2] for q1, q2 in (form(P98, 1.0, 0.1, t) for t in grid.tolist())])
        assert np.array_equal(np.column_stack(np.broadcast_arrays(*p1, *p2)), rows), form.__name__
        if form is routh_closed_form:
            assert np.array_equal(closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1), 1e-3, 1e-4).pairs, rows)


def test_closed_form_table_is_built_on_first_read():
    # a Routh trajectory reads only eval, and must not pay for the 19,981-row table
    sol = closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1))
    sol.eval(0.3), sol.slope(-0.7)
    assert sol._pairs is None
    assert sol.pairs is sol.pairs and sol.pairs.shape == (len(sol.grid), 4)


def test_independence_margins(ellipsoid_momenta):
    sol = closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1))
    assert sol.min_independence() >= 1e-8
    assert ellipsoid_momenta.min_independence() >= 1e-8


def test_solution_grid_bounds():
    sol = solve_momenta(P98, ProfileSpec.routh(1.0, 0.1), delta=1e-2, h=1e-3)
    assert abs(sol.grid[0] + 0.99) <= 1e-3 and abs(sol.grid[-1] - 0.99) <= 1e-3
    with pytest.raises(DomainError):
        sol.eval(0.9999)
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
# the solver against the step-by-step RK4 it replaces, and the one-lookup table


def _solve_with_rk4_step(params, spec, delta, h):
    """The coefficient ODE stepped with the generic RK4 step + momenta_ode_rhs: one scalar
    [QP] evaluation per pair and stage, the way the table used to be built."""
    grid = _grid(delta, h)
    n = (len(grid) - 1) // 2
    pairs = np.empty((len(grid), 4))

    def f(t, y):
        try:
            return np.concatenate(
                [momenta_ode_rhs(params, spec, t, y[:2]), momenta_ode_rhs(params, spec, t, y[2:])]
            )
        except NonholoError:  # a float division by zero in qp_matrix; qp_grid's twin gives inf/NaN there
            with np.errstate(all="ignore"):
                q = [float(e[0]) for e in qp_grid(params, spec, np.array([t]))]
            return [*_ode_slope(*q, t, y[0], y[1]), *_ode_slope(*q, t, y[2], y[3])]

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
    spec = SOLVER_SPECS[name]
    grid, pairs = _solve_with_rk4_step(P98, spec, delta, h)
    sol = solve_momenta(P98, spec, delta, h)
    assert same_bits(sol.grid, grid)
    assert same_bits(sol.pairs, pairs)


#: A share of the drawn ellipsoids are balanced (c = b): their f2 column
#: holds exact zeros, whose sign a reflected half could flip.
_ellipsoids = st.tuples(
    st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.sampled_from([True, False, False])
).map(lambda t: ProfileSpec.ellipsoid(t[0], t[0] if t[2] else t[1]))
_bodies = st.builds(
    BodyParams,
    m=st.floats(0.1, 10.0),
    I1=st.floats(0.1, 10.0),
    I3=st.floats(0.1, 10.0),
    grav=st.sampled_from([0.0, 9.8]),
)


@settings(max_examples=12, deadline=None)
@given(params=_bodies, spec=_ellipsoids, delta=st.floats(1e-2, 0.1), h=st.floats(2.5e-4, 1e-3))
@example(params=P98, spec=ProfileSpec.ellipsoid(1.5, 1.5), delta=1e-2, h=1e-3)
@example(params=P98, spec=ProfileSpec.ellipsoid(2.0, 2.0), delta=1e-2, h=1e-3)
# the bodies of test_a_non_finite_table_is_an_error
@example(params=BodyParams(m=1.0, I1=1e308, I3=1e308, grav=9.8), spec=ProfileSpec.routh(1.0, 0.1), delta=1e-2, h=1e-3)
@example(params=P98, spec=ProfileSpec.ellipsoid(1e-300, 1e-300), delta=1e-2, h=1e-3)
@example(params=P98, spec=ProfileSpec.ellipsoid(1e300, 1e-300), delta=1e-2, h=1e-3)
def test_solve_is_the_two_sided_rk4_step_solve(params, spec, delta, h):
    # An ellipsoid table reflects its upper half where that gives the bits of
    # stepping -h; the oracle steps both halves.  A non-finite table is an
    # error that counts the oracle's non-finite nodes.
    grid, pairs = _solve_with_rk4_step(params, spec, delta, h)
    bad = int((~np.isfinite(pairs).all(axis=1)).sum())
    if bad:
        with pytest.raises(NonholoError, match=re.escape(f"not finite at {bad} of {len(grid)} nodes")):
            solve_momenta(params, spec, delta, h)
        return
    sol = solve_momenta(params, spec, delta, h)
    assert same_bits(sol.grid, grid)
    assert same_bits(sol.pairs, pairs)


def test_an_ellipsoid_table_steps_one_half(monkeypatch, ellipsoid_preset, routh_preset):
    # Counted, not timed: the RK4 steps that _rk4_pairs returns per solve.
    steps = []

    def counting(*args):
        rows = _rk4_pairs(*args)
        steps.append(len(rows))
        return rows

    monkeypatch.setattr(momenta, "_rk4_pairs", counting)
    n = grid_half(1e-3, 1e-4)
    balanced = (P98, ProfileSpec.ellipsoid(1.5, 1.5))
    for (params, spec), expected in ((ellipsoid_preset, n), (routh_preset, 2 * n), (balanced, 2 * n)):
        steps.clear()
        sol = solve_momenta(params, spec)
        assert sum(steps) == expected, spec
    assert (sol.pairs[n + 1 :] == 0).any()  # the balanced table's upper half holds an exact zero


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
    rows = _rk4_pairs(y, h, stage_t, qp)
    expected = []
    for i, t in enumerate(starts):
        entries = iter([[q[j] for q in qp] for j in (i, m + i, m + i, 2 * m + i)])

        def f(t, y):
            q = next(entries)
            return [*_ode_slope(*q, t, y[0], y[1]), *_ode_slope(*q, t, y[2], y[3])]

        y = rk4_step_n(f, t, y, h)
        expected.append(y)
    assert same_bits(rows, expected)


def _interp_columns(sol, t1):
    return np.array([np.interp(t1, sol.grid, sol.pairs[:, i]) for i in range(4)])


_inside = st.floats(-0.999, 0.999, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(_inside, st.lists(_inside, max_size=40))
def test_eval_equals_np_interp_inside_the_grid(ellipsoid_momenta, t1, tau1):
    assert np.array_equal(ellipsoid_momenta.eval(t1), _interp_columns(ellipsoid_momenta, t1))
    tau1 = np.array(tau1, dtype=float)
    assert same_bits(ellipsoid_momenta.eval(tau1), _interp_columns(ellipsoid_momenta, tau1).T)


def test_eval_equals_np_interp_at_nodes_and_ends(ellipsoid_momenta):
    sol = ellipsoid_momenta
    lo, hi = float(sol.grid[0]), float(sol.grid[-1])
    points = sol.grid.tolist() + [
        lo - 1e-12,
        np.nextafter(lo, 0.0),
        np.nextafter(hi, 0.0),
        hi + 1e-12,
    ]
    for t1 in points:
        assert np.array_equal(sol.eval(t1), _interp_columns(sol, t1)), t1
    assert np.isnan(sol.eval(float("nan"))).all()
    with pytest.raises(DomainError):
        sol.eval(lo - 1e-11)
    with pytest.raises(DomainError):
        sol.eval(hi + 1e-11)


def _ode_rhs_at_interp(sol, t1):
    """``momenta_ode_rhs`` of both pairs at the ``np.interp`` values (NaN at a NaN t1)."""
    if t1 != t1:
        return [t1] * 4
    v = _interp_columns(sol, t1)
    return [*momenta_ode_rhs(sol.params, sol.spec, t1, v[:2]), *momenta_ode_rhs(sol.params, sol.spec, t1, v[2:])]


def _closed_rows(form):
    """The float closed form ``form`` at t1, as the row (f1, g1, f2, g2)."""
    def row(sol, t1):
        p1, p2 = form(sol.params, sol.spec.p1, sol.spec.p2, t1)
        return [*p1, *p2]

    return row


#: The reference each row of a lookup is compared with, outside the lookup's own body
_REFERENCES = {
    "table": {"eval": _interp_columns, "slope": _ode_rhs_at_interp},
    "closed": {"eval": _closed_rows(routh_closed_form), "slope": _closed_rows(routh_closed_form_derivative)},
}


def _reference_rows(sol, name, tau1):
    """The reference row of lookup ``name`` at each element of tau1, and a NaN
    row where the float lookup raises DomainError (checking on the way that
    the float lookup gives the reference row everywhere else)."""
    reference = _REFERENCES["closed" if sol.spec.kind == "routh" else "table"][name]
    rows = []
    for t1 in tau1.tolist():
        try:
            row = getattr(sol, name)(t1)
        except DomainError:
            rows.append(np.full(4, np.nan))
            continue
        rows.append(reference(sol, t1))
        assert same_bits(row, rows[-1]), (name, t1)
    return np.array(rows)


def _probe_points(sol, seed):
    """Every seventh node, the ends and their neighbours, the poles and just
    past them, signed zeros, NaN, and uniform points over [-1.01, 1.01]."""
    lo, hi = float(sol.grid[0]), float(sol.grid[-1])
    special = [lo, hi, lo - 1e-12, hi + 1e-12, lo - 1e-11, hi + 1e-11, np.nextafter(lo, 0.0),
               np.nextafter(hi, 0.0), -1.0, 1.0, 1.0 + 1e-9, -1.0 - 2e-9, 1.5, 0.0, -0.0, math.nan]
    rng = np.random.default_rng(seed)
    return np.array(sol.grid[::7].tolist() + special + rng.uniform(-1.01, 1.01, 3000).tolist())


@pytest.mark.parametrize("which", ["default-table", "coarse-table", "closed-forms"])
def test_array_lookup_is_the_per_row_lookup(ellipsoid_preset, ellipsoid_momenta, which):
    # Each row of an array lookup, and each float lookup, against a reference
    # outside the lookup: np.interp on each column (table eval), the
    # coefficient ODE at those values (table slope), the float closed forms.
    params, spec = ellipsoid_preset
    sol = {
        "default-table": ellipsoid_momenta,
        "coarse-table": solve_momenta(params, spec, 0.1, 1e-3),
        "closed-forms": closed_form_momenta(P98, ProfileSpec.routh(1.0, 0.1)),
    }[which]
    tau1 = _probe_points(sol, 3)
    for name in ("eval", "slope"):
        rows = getattr(sol, name)(tau1)
        assert rows.shape == (len(tau1), 4)
        assert same_bits(rows, _reference_rows(sol, name, tau1)), name
    assert np.isnan(rows).all(axis=1).sum() >= 4  # the points off the solution


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
    with pytest.raises(NonholoError, match="not finite"):
        solve_momenta(params, spec, 1e-2, 1e-3)
