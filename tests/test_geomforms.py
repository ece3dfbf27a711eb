"""Gauge scalars Q, P and the 2x2 coefficient matrix [QP](tau1).

The two routes to (Q, P) — direct evaluation at a state vs. the linear
form [QP](tau1).(tau3, tau4) — must agree to rounding; their agreement is
what licenses tabulating the momenta ODE in tau1 alone."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import (
    BodyParams,
    ProfileSpec,
    StateGM,
    eval_profile,
    invariants,
    momenta_ode_rhs,
    qp_matrix,
    qpl_values,
)
from nonholo.errors import DomainError, NonholoError
from nonholo.geomforms import qp_grid

from conftest import make_states
from oracles import same_bits

PRESETS = {
    "routh": ProfileSpec.routh(1.0, 0.1),
    "ellipsoid": ProfileSpec.ellipsoid(2.0, 1.0),
}


def test_worked_state_values(worked_params, worked_spec, worked_state):
    ev = eval_profile(worked_spec, 0.8)
    vals = qpl_values(worked_params, ev, worked_state)
    assert vals.c3 == pytest.approx(-1.0 / 12.0, rel=1e-13)
    assert vals.Q == pytest.approx(-10.0 / 9.0, rel=1e-14)
    assert vals.P == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(vals.Lvec, [-2.0 / 3.0, 0.0, -8.0 / 9.0], atol=1e-14)
    assert np.allclose(vals.Kvec, [-11.0 / 9.0, -2.0 / 3.0, -67.0 / 36.0], atol=1e-13)


def test_vector_structure(worked_params, worked_state):
    # L_vec = Q*gamma + P*e3 exactly; K_vec - L_vec is parallel to Omega.
    spec = ProfileSpec.routh(1.0, 0.4)
    ev = eval_profile(spec, 0.8)
    vals = qpl_values(worked_params, ev, worked_state)
    lv = vals.Q * worked_state.gamma + vals.P * np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(vals.Lvec - lv)) == 0.0
    from nonholo import omega_from_M

    om = omega_from_M(worked_params, ev, worked_state)
    diff = vals.Kvec - vals.Lvec
    assert np.max(np.abs(np.cross(diff, om))) <= 1e-12


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(sorted(PRESETS)))
def test_qp_linearity_dual_route(seed, kind):
    params = BodyParams(m=1.0, I1=2.0, I3=3.0)
    spec = PRESETS[kind]
    (state,) = make_states(seed, 1)
    ev = eval_profile(spec, state.gamma[2])
    vals = qpl_values(params, ev, state)
    t1, _, t3, t4, _ = invariants(state)
    mat = qp_matrix(params, spec, t1)
    q2 = mat[0, 0] * t3 + mat[0, 1] * t4
    p2 = mat[1, 0] * t3 + mat[1, 1] * t4
    den = max(abs(vals.Q), abs(vals.P), 1e-3)
    assert abs(vals.Q - q2) / den <= 1e-12
    assert abs(vals.P - p2) / den <= 1e-12


@settings(max_examples=100)
@given(
    st.floats(0.3, 3.0, allow_nan=False),
    st.floats(-0.9, 0.9, allow_nan=False),
    st.floats(-0.99, 0.99, allow_nan=False),
)
def test_routh_kernel_pair(r, l_frac, tau1):
    # (l, r) spans the kernel of [QP]^T for every ball: the first
    # closed-form momentum has constant coefficients.
    params = BodyParams(m=1.4, I1=2.0, I3=3.0)
    l = l_frac * r
    mat = qp_matrix(params, ProfileSpec.routh(r, l), tau1)
    resid = mat.T @ np.array([l, r])
    assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, np.max(np.abs(mat)))


@settings(max_examples=60)
@given(st.floats(0.3, 4.0, allow_nan=False), st.floats(-0.99, 0.99, allow_nan=False))
def test_spherical_ellipsoid_has_no_P(b, tau1):
    params = BodyParams(m=1.0, I1=2.0, I3=3.0)
    mat = qp_matrix(params, ProfileSpec.ellipsoid(b, b), tau1)
    assert np.max(np.abs(mat[1, :])) <= 1e-12


def test_qp_matrix_domain_guard():
    params = BodyParams(m=1.0, I1=2.0, I3=3.0)
    spec = ProfileSpec.routh(1.0, 0.1)
    qp_matrix(params, spec, 0.999999)
    with pytest.raises(DomainError):
        qp_matrix(params, spec, 1.0)
    with pytest.raises(DomainError):
        qp_matrix(params, spec, -1.0 - 1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("b,c", [(1e-300, 1e-300), (1e300, 1e-300)])
def test_qp_matrix_out_of_float_range_is_an_error(b, c):
    # The float body divides by an underflowed zero where the array body
    # gives NaN; both must say the values are out of range, not crash.
    params, spec = BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8), ProfileSpec.ellipsoid(b, c)
    assert np.isnan(qp_grid(params, spec, np.array([0.5]))).all()
    with pytest.raises(NonholoError, match=r"tau1=0\.5 .*outside floating-point range"):
        qp_matrix(params, spec, 0.5)
    with pytest.raises(NonholoError, match=r"tau1=0\.5 .*outside floating-point range"):
        momenta_ode_rhs(params, spec, 0.5, [1.0, 0.0])


def test_P_vanishes_for_balanced_sphere_states(worked_params, worked_spec):
    # Balanced sphere: L = 0 kills both terms of P.
    for state in make_states(7, 10):
        ev = eval_profile(worked_spec, state.gamma[2])
        assert qpl_values(worked_params, ev, state).P == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "spec",
    [*PRESETS.values(), ProfileSpec.ellipsoid(1.5, 1.5)],
    ids=[*PRESETS, "balanced-ellipsoid"],
)
def test_qp_grid_equals_qp_matrix_exactly(spec):
    # The coefficient-ODE solve evaluates [QP] as arrays; every entry must be
    # the scalar qp_matrix value, bit for bit, or the table would move.
    params = BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8)
    tau1 = np.concatenate([np.linspace(-0.999999, 0.999999, 20001), [0.0, -0.0, 0.5e-4]])
    grid = np.array(qp_grid(params, spec, tau1))
    scalar = np.array([qp_matrix(params, spec, t).reshape(4) for t in tau1.tolist()]).T
    assert same_bits(grid, scalar)


def test_qp_grid_domain_guard():
    params = BodyParams(m=1.0, I1=2.0, I3=3.0)
    spec = ProfileSpec.routh(1.0, 0.1)
    with pytest.raises(DomainError):
        qp_grid(params, spec, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        qp_grid(params, spec, np.array([-1.0 - 1e-12]))
