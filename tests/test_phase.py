import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import (
    BodyParams,
    ProfileSpec,
    StateGM,
    energy,
    eval_profile,
    invariants,
    momentum_components,
    omega_from_M,
)
from nonholo.phase import relation_residual
from oracles import M_from_omega

from conftest import make_states


def test_body_params_guards():
    with pytest.raises(ValueError):
        BodyParams(m=0.0, I1=2.0, I3=3.0)
    with pytest.raises(ValueError):
        BodyParams(m=1.0, I1=-2.0, I3=3.0)
    with pytest.raises(ValueError):
        BodyParams(m=1.0, I1=2.0, I3=3.0, grav=-1.0)


def test_state_requires_unit_gamma():
    with pytest.raises(ValueError):
        StateGM(np.array([0.6, 0.0, 0.9]), np.zeros(3))
    st_ok = StateGM(np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0]))
    rt = StateGM.from_packed(st_ok.packed())
    assert np.allclose(rt.gamma, st_ok.gamma) and np.allclose(rt.M, st_ok.M)


def test_invariants_frozen(worked_state):
    p = invariants(worked_state)
    assert p.tolist() == [0.8, 1.2, 0.6, 3.0, 5.0]
    t1, t2, t3, _, t5 = p.tolist()
    assert relation_residual(t1, t2, t3, t5) == pytest.approx(0.0, abs=1e-15)
    j1, j2 = momentum_components(worked_state)
    assert j1 == -3.0
    assert j2 == pytest.approx(3.0, abs=1e-15)


def test_invariants_and_momenta_of_state_blocks_equal_those_of_each_state():
    x = np.array([s.packed() for s in make_states(4, 6)]).reshape(2, 3, 6)
    tau, j = invariants(x), momentum_components(x)
    assert tau.shape == (2, 3, 5) and j.shape == (2, 3, 2)
    for idx in np.ndindex(2, 3):
        assert tau[idx].tolist() == invariants(x[idx]).tolist()
        assert j[idx].tolist() == momentum_components(x[idx]).tolist()


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_invariant_relation_holds_on_states(seed):
    (state,) = make_states(seed, 1)
    t1, t2, t3, _, t5 = invariants(state).tolist()
    assert abs(relation_residual(t1, t2, t3, t5)) <= 1e-12 * max(1.0, t5)


def test_omega_frozen(worked_params, worked_spec, worked_state):
    ev = eval_profile(worked_spec, worked_state.gamma[2])
    om = omega_from_M(worked_params, ev, worked_state)
    assert np.allclose(om, [5.0 / 9.0, 2.0 / 3.0, 35.0 / 36.0], atol=1e-15)


# M -> Omega -> M relative to |M| with M scaled by up to 1e+-100 and m, I1, I3
# by up to 1e+-3 each: worst 9.0e-10 over all 10,001 seeds at m = 1.7e3,
# I1 = 2e-3, I3 = 3e-3, where the Omega solve is worst conditioned.
WIDE_ROUND_TRIP = 1e-8


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.sampled_from(["routh", "ellipsoid"]), st.integers(-100, 100),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_omega_M_round_trip(seed, kind, M_decades, body_decades):
    spec = ProfileSpec.routh(1.0, 0.3) if kind == "routh" else ProfileSpec.ellipsoid(2.0, 1.0)
    (state,) = make_states(seed, 1)
    ev = eval_profile(spec, state.gamma[2])
    wide = BodyParams(*(v * 10.0**d for v, d in zip((1.7, 2.0, 3.0), body_decades)))
    wide_M = state.M * 10.0**M_decades
    for params, M, tol in ((BodyParams(m=1.7, I1=2.0, I3=3.0), state.M, 1e-10 * max(1.0, np.max(np.abs(state.M)))),
                           (wide, wide_M, WIDE_ROUND_TRIP * np.max(np.abs(wide_M)))):
        om = omega_from_M(params, ev, np.concatenate([state.gamma, M]))
        back = M_from_omega(params, ev, state.gamma, om)
        assert np.max(np.abs(back - M)) <= tol


def test_energy_frozen(worked_params, worked_spec, worked_state):
    ev = eval_profile(worked_spec, worked_state.gamma[2])
    assert energy(worked_params, ev, worked_state) == pytest.approx(173.0 / 72.0, rel=1e-15)


def test_energy_upright_with_gravity():
    # Balanced sphere spun upright: H = |M|^2/(2*I3') + m*g*r with the
    # contact point straight below the center.
    params = BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8)
    spec = ProfileSpec.routh(1.0, 0.0)
    state = StateGM(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 3.0]))
    ev = eval_profile(spec, 1.0)
    assert energy(params, ev, state) == pytest.approx(11.3, rel=1e-14)


def test_energy_packed_agrees(worked_params, worked_spec, worked_state):
    ev = eval_profile(worked_spec, 0.8)
    assert energy(worked_params, ev, worked_state) == energy(worked_params, ev, worked_state.packed())
