"""Coefficient ODE for the gauge momenta: closed forms, the tabulated
solver, and the certificates tying one to the other."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import (
    BodyParams,
    CoefficientPair,
    ProfileSpec,
    StateGM,
    closed_form_momenta,
    eval_gauge_momenta,
    eval_profile,
    gauge_momentum_fields,
    grid_pair,
    momenta_ode_rhs,
    ode_residual,
    omega_from_M,
    routh_closed_form,
    routh_pair,
    solve_momenta,
)
from nonholo.errors import DomainError
from nonholo.momenta import _grid
from nonholo.smallalg import rk4_step

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
    worst = [0.0, 0.0]
    for t1 in np.linspace(-0.999, 0.999, 1000):
        for i in range(2):
            worst[i] = max(worst[i], ode_residual(P98, spec, routh_pair(P98, spec, i), t1))
    assert worst[0] <= 1e-12  # constants: exactly in the kernel
    assert worst[1] <= 1e-9


def test_non_solution_is_rejected():
    # Negative control: the pair (1, tau1) is not a solution and the
    # residual must say so loudly at a generic point.
    spec = ProfileSpec.routh(1.0, 0.1)
    fake = CoefficientPair(lambda t1: (1.0, t1), lambda t1: (0.0, 1.0), name="fake")
    assert ode_residual(P98, spec, fake, 0.3) > 1e-3


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


def test_grid_pair_solves_the_ode_inside_the_grid(ellipsoid_preset, ellipsoid_momenta):
    params, spec = ellipsoid_preset
    worst = 0.0
    for t1 in np.linspace(-0.99, 0.99, 67):
        for i in range(2):
            worst = max(worst, ode_residual(params, spec, grid_pair(ellipsoid_momenta, i), t1))
    assert worst <= 1e-6  # linear interpolation leaves O(h) kinks in the derivative


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
    f1, f2 = gauge_momentum_fields(P98, spec, sol)
    from nonholo import grad_fd

    (state,) = make_states(seed, 1)
    x = state.packed()
    for f in (f1, f2):
        assert np.max(np.abs(f.gradient(x) - grad_fd(f.value, x))) <= 1e-7


# ---------------------------------------------------------------------------
# the solver against the step-by-step RK4 it replaces, and the one-lookup table


def _solve_with_rk4_step(params, spec, delta, h):
    """The coefficient ODE stepped with rk4_step + momenta_ode_rhs: one scalar
    [QP] evaluation per pair and stage, the way the table used to be built."""
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
            y = rk4_step(f, direction * (k - 1) * h, y, direction * h)
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
    assert np.array_equal(sol.grid, grid)
    assert np.array_equal(sol.pairs, pairs)


def _interp_columns(sol, t1):
    return np.array([np.interp(t1, sol.grid, sol.pairs[:, i]) for i in range(4)])


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.999, 0.999, allow_nan=False))
def test_eval_equals_np_interp_inside_the_grid(ellipsoid_momenta, t1):
    assert np.array_equal(ellipsoid_momenta.eval(t1), _interp_columns(ellipsoid_momenta, t1))


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
