"""The float stepper against the numpy bodies it replaced (``oracles.py``), bit for bit.

Arrays are compared as ``.view(np.int64)``, so signed zeros and NaN
payloads count, and warnings are compared by their text.
"""
import math
import warnings

import numpy as np
import pytest

import oracles
from oracles import same_bits
from nonholo import (
    BodyParams,
    DomainError,
    IntegratorConfig,
    ProfileSpec,
    dynamics,
    energy,
    eval_profile,
    integrate,
    omega_from_M,
    particle,
    particle_hamiltonian,
    particle_integrate,
    particle_momentum,
    particle_rhs,
    rhs,
    rk4_step,
    solution_for,
)

from conftest import make_states, whole


def run(fn, *args):
    """fn(*args) with every warning recorded: (result, texts of the UserWarnings)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def random_bodies(seed: int, n: int):
    """n (params, spec) pairs: both profiles, grav 0 and > 0."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        params = BodyParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                            9.8 * (i % 2))
        r = rng.uniform(0.5, 2.0)
        spec = (ProfileSpec.routh(r, rng.uniform(-0.9, 0.9) * r) if i % 4 < 2
                else ProfileSpec.ellipsoid(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)))
        out.append((params, spec))
    return out


# exact-pole states (g1 = g2 = 0) and M = 0, where the zeros carry signs
SPECIAL_STATES = [
    np.array([0.0, 0.0, 1.0, 0.0, 0.0, 3.0]),
    np.array([0.0, 0.0, -1.0, 1.0, -2.0, 0.5]),
    np.array([-0.0, 0.0, 1.0, -0.0, 0.0, -0.0]),
    np.array([0.0, -0.0, 1.0, -0.0, -0.0, 0.0]),  # s1 = rho*g1 - L*0 is +0 here, rho*g1 is -0
    np.array([0.6, 0.0, 0.8, 0.0, 0.0, 0.0]),
    np.array([0.0, -0.6, -0.8, 0.0, -0.0, 0.0]),
]


@pytest.mark.parametrize("index", range(8))
def test_kernels_match_the_numpy_bodies(index):
    params, spec = random_bodies(11, 8)[index]
    states = [s.packed() for s in make_states(100 + index, 6)] + SPECIAL_STATES
    for x in states:
        ev = eval_profile(spec, x[2])
        assert same_bits(omega_from_M(params, ev, x), oracles.omega_from_M(params, ev, x))
        assert same_bits(energy(params, ev, x), oracles.energy(params, ev, x))
        assert same_bits(rhs(params, spec, x), oracles.rhs(params, spec, x))


def test_rk4_step_has_the_bits_of_the_array_formula():
    # Both written-out steps, the particle's five elements and a solid's
    # six, on a field that reads t (the solid's does not).
    rng = np.random.default_rng(4)
    for n in (5, 6):
        a = rng.standard_normal((n, n))

        def f(t, y, a=a):
            return a @ np.asarray(y) + t

        for _ in range(20):
            y, h = rng.standard_normal(n), rng.uniform(1e-3, 0.5)
            assert same_bits(rk4_step(f, 0.3, y, h), oracles.rk4_step(f, 0.3, y, h))


@pytest.mark.parametrize("index", range(16))
def test_integrate_matches_the_numpy_body(index):
    # both profiles, grav 0 and > 0
    params, spec = random_bodies(7, 16)[index]
    (state,) = make_states(200 + index, 1)
    cfg = IntegratorConfig(2e-3, 0.3)
    momenta = solution_for(params, spec, 1e-2, 1e-3)
    new, new_warn = run(whole(integrate), params, spec, state.packed(), cfg, momenta)
    old, old_warn = run(oracles.integrate, params, spec, state.packed(), cfg, momenta)
    assert same_bits(new, old) and new_warn == old_warn


@pytest.mark.parametrize("start", range(len(SPECIAL_STATES)))
@pytest.mark.parametrize("body", ["routh", "ellipsoid"])
def test_integrate_keeps_signed_zeros(body, start, routh_preset, ellipsoid_preset):
    params, spec = routh_preset if body == "routh" else ellipsoid_preset
    for grav_params in (params, BodyParams(params.m, params.I1, params.I3)):
        x = SPECIAL_STATES[start]
        assert same_bits(rhs(grav_params, spec, x), oracles.rhs(grav_params, spec, x))
        momenta = solution_for(grav_params, spec)
        cfg = IntegratorConfig(1e-3, 0.02)
        new, _ = run(whole(integrate), grav_params, spec, x, cfg, momenta)
        old, _ = run(oracles.integrate, grav_params, spec, x, cfg, momenta)
        assert same_bits(new, old)


def test_off_table_run_matches_the_numpy_body(ellipsoid_preset):
    # The pole-grazing start is off a delta = 0.1 table from step 0 and
    # passes the end of the default one before t = 1.
    params, spec = ellipsoid_preset
    g = np.array([0.3, 0.2, 0.8]) / math.sqrt(0.77)
    start = np.array([*g, 0.5, -0.3, 2.5])
    for momenta in (solution_for(params, spec, 0.1, 1e-3), solution_for(params, spec)):
        new, new_warn = run(whole(integrate), params, spec, start, IntegratorConfig(1e-3, 1.0), momenta)
        old, old_warn = run(oracles.integrate, params, spec, start, IntegratorConfig(1e-3, 1.0), momenta)
        assert np.isnan(new[:, 13]).any() and len(new_warn) == 1
        assert same_bits(new, old) and new_warn == old_warn


def test_diverging_run_aborts_at_the_same_row(routh_preset):
    params, spec = routh_preset
    start = np.array([0.6, 0.0, 0.8, 1e308, 2.0, 3.0])
    cfg, momenta = IntegratorConfig(1e-3, 0.01), solution_for(params, spec)
    new, new_warn = run(whole(integrate), params, spec, start, cfg, momenta)
    old, old_warn = run(oracles.integrate, params, spec, start, cfg, momenta)
    assert len(new) < cfg.steps + 1 and new_warn[-1].startswith("non-finite energy at step 0")
    assert same_bits(new, old) and new_warn == old_warn


def test_a_state_that_turns_non_finite_is_named(routh_preset, monkeypatch):
    # A field of NaNs makes the first step's state NaN at a finite energy.
    monkeypatch.setattr(dynamics, "field_floats", lambda *args: (math.nan,) * 6)
    monkeypatch.setattr(particle, "_field", lambda y: (math.nan,) * 5)
    params, spec = routh_preset
    cfg = IntegratorConfig(1e-3, 0.01)
    runs = [(whole(integrate), params, spec, np.array([0.6, 0.0, 0.8, 1.0, 2.0, 3.0]), cfg, solution_for(params, spec)),
            (whole(particle_integrate), np.array([0.0, 0.0, 0.0, 1.0, 1.0]), cfg)]
    for fn, *args in runs:
        traj, texts = run(fn, *args)
        assert len(traj) == 1 and texts == ["non-finite state at step 1; aborting with 1 samples"]


def test_a_stage_off_the_band_raises_as_before(routh_preset):
    # dt = 0.1 near the pole: a stage of the first steps has gamma3 > 1 + 1e-9.
    params, spec = routh_preset
    start = np.array([math.sin(0.05), 0.0, math.cos(0.05), 0.0, 5.0, 0.0])
    cfg, momenta = IntegratorConfig(0.1, 1.0), solution_for(params, spec)
    messages = []
    for fn in (whole(integrate), oracles.integrate):
        with pytest.raises(DomainError, match="outside") as info:
            fn(params, spec, start, cfg, momenta)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_a_run_off_the_table_warns_before_a_stage_off_the_band_raises(ellipsoid_preset):
    # Off a delta = 0.1 table from step 0; a stage of dt = 0.1 then passes
    # gamma3 = 1 + 1e-9.  The off-table warning of the rows done comes first.
    params, spec = ellipsoid_preset
    start = np.array([math.sin(0.05), 0.0, math.cos(0.05), 0.0, 5.0, 0.0])
    cfg, momenta = IntegratorConfig(0.1, 1.0), solution_for(params, spec, 0.1, 1e-3)
    outcomes = []
    for fn in (whole(integrate), oracles.integrate):
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DomainError, match="outside") as info:
            warnings.simplefilter("always")
            fn(params, spec, start, cfg, momenta)
        outcomes.append((str(info.value), [str(w.message) for w in caught]))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][1]) == 1 and "outside the momenta grid [-0.9, 0.9] at step 0 " in outcomes[0][1][0]


def test_particle_kernels_match_the_numpy_bodies():
    rng = np.random.default_rng(9)
    points = list(rng.uniform(-2.0, 2.0, (30, 5))) + [np.zeros(5), np.array([0.0, -0.0, 0.0, -0.0, 0.0])]
    for v in points:
        assert same_bits(particle_rhs(v), oracles.particle_rhs(v))
        assert same_bits(particle_momentum(v), oracles.particle_momentum(v))
        assert same_bits(particle_hamiltonian(v), oracles.particle_hamiltonian(v))


@pytest.mark.parametrize("seed", range(6))
def test_particle_integrate_matches_the_numpy_body(seed):
    v0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 5)
    cfg = IntegratorConfig(1e-3, 0.5)
    assert same_bits(whole(particle_integrate)(v0, cfg), oracles.particle_integrate(v0, cfg))


@pytest.mark.parametrize("momentum", [(1e200, 1.0), (1e154, 1e154)])
def test_particle_overflow_matches_the_numpy_body(momentum):
    # H overflows at a finite state: the run ends before that row, with one warning
    v0 = np.array([0.0, 0.0, 0.0, *momentum])
    cfg = IntegratorConfig(1e-3, 0.01)
    new, new_warn = run(whole(particle_integrate), v0, cfg)
    old, old_warn = run(oracles.particle_integrate, v0, cfg)
    assert len(new_warn) == 1 and same_bits(new, old) and new_warn == old_warn
