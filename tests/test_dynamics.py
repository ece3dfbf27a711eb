import warnings

import numpy as np
import pytest

from nonholo import (
    IntegratorConfig,
    MomentaSolution,
    StateGM,
    drift_report,
    energy,
    eval_gauge_momenta,
    eval_profile,
    integrate,
    invariants,
    momentum_components,
    nonconservation_rates,
    rhs,
    solution_for,
    solve_momenta,
)
from nonholo.dynamics import COLUMNS, MAX_STEPS

from conftest import make_states, whole
from oracles import reconstruct_full


def test_rhs_frozen(worked_params, worked_spec, worked_state):
    xd = rhs(worked_params, worked_spec, worked_state)
    assert xd.shape == (6,)
    gd, md = xd[:3], xd[3:]
    assert np.allclose(gd, [-8.0 / 15.0, -5.0 / 36.0, 2.0 / 5.0], atol=1e-14)
    assert np.allclose(md, [-1.0 / 18.0, 25.0 / 36.0, -4.0 / 9.0], atol=1e-14)


def test_rhs_is_tangent_to_the_sphere(routh_preset, ellipsoid_preset):
    for params, spec in (routh_preset, ellipsoid_preset):
        for state in make_states(31, 5):
            gd = rhs(params, spec, state)[:3]
            assert abs(np.dot(gd, state.gamma)) <= 1e-13


def test_integrator_config_guards():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=0.01)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=float("inf"))
    with pytest.raises(ValueError):
        IntegratorConfig(dt=float("nan"), t_final=1.0)
    with pytest.raises(ValueError, match="steps"):  # checked before anything is allocated
        IntegratorConfig(dt=1e-9, t_final=MAX_STEPS * 1e-9 * 1.5)


def test_integrate_sampling(routh_preset):
    params, spec = routh_preset
    state = StateGM(np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0]))
    traj = whole(integrate)(params, spec, state, IntegratorConfig(1e-2, 0.1), solution_for(params, spec))
    assert traj.shape == (11, len(COLUMNS))
    assert traj[0, 0] == 0.0
    assert traj[-1, 0] == pytest.approx(0.1)
    for gamma in traj[:, 1:4]:
        assert abs(np.dot(gamma, gamma) - 1.0) <= 1e-12


@pytest.mark.parametrize("start", [
    [0.6, 0.0, 0.9, 1.0, 2.0, 3.0],  # |gamma| = 1.08
    [0.6, 0.0, 0.8, 1.0, 2.0, np.nan],
    [0.6, 0.0, 0.8, 1.0, 2.0, 3.0, 0.0],
])
def test_integrate_validates_its_start(routh_preset, start):
    params, spec = routh_preset
    with pytest.raises(ValueError):
        whole(integrate)(params, spec, np.array(start), IntegratorConfig(1e-2, 0.1), solution_for(params, spec))


def test_integrate_takes_a_packed_start_or_a_state(routh_preset):
    params, spec = routh_preset
    state = StateGM(np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0]))
    cfg, momenta = IntegratorConfig(1e-2, 0.1), solution_for(params, spec)
    packed, state_run = (whole(integrate)(params, spec, start, cfg, momenta) for start in (state.packed(), state))
    assert packed.tolist() == state_run.tolist()


@pytest.mark.parametrize("body", ["routh", "ellipsoid"])
def test_columns_equal_the_scalar_kernels(body, routh_preset, ellipsoid_preset):
    # The derived columns are filled after the loop as arrays; each must keep
    # the bits of its one scalar definition at that row's state.
    params, spec = routh_preset if body == "routh" else ellipsoid_preset
    momenta = solution_for(params, spec, 1e-2, 1e-3)
    state0 = StateGM(np.array([3.0 / 7.0, 2.0 / 7.0, 6.0 / 7.0]), np.array([1.2, -0.8, 1.0]))
    cfg = IntegratorConfig(1e-2, 0.2)
    traj = whole(integrate)(params, spec, state0, cfg, momenta=momenta)
    assert traj.shape == (21, 17) and ",".join(COLUMNS) == "t,g1,g2,g3,M1,M2,M3,tau1,tau2,tau3,tau4,tau5,E,J1,J2,j1,j2"
    for k, row in enumerate(traj):
        x = row[1:7]
        expected = [
            k * cfg.dt, *x, *invariants(x), energy(params, eval_profile(spec, x[2]), x),
            *eval_gauge_momenta(momenta, x), *momentum_components(x),
        ]
        assert row.tolist() == expected


def test_short_run_conservation(routh_preset):
    params, spec = routh_preset
    state = StateGM(np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0]))
    rep = drift_report(whole(integrate)(params, spec, state, IntegratorConfig(1e-3, 1.0), solution_for(params, spec)))
    assert rep["dE"] <= 1e-10
    assert rep["dJ1"] <= 1e-10
    assert rep["dJ2"] <= 1e-10
    assert rep["dRel"] <= 1e-12


def test_pole_grazing_run_degrades_to_nan(ellipsoid_preset):
    # This start climbs past |gamma3| = 0.999 before t=1; the tabulated
    # momenta stop there, so the run must warn with the lookup's message and
    # the gauge-momentum drifts must come back NaN instead of a silently
    # clean number.
    params, spec = ellipsoid_preset
    g = np.array([0.3, 0.2, 0.8])
    g /= np.sqrt(g @ g)
    state = StateGM(g, np.array([0.5, -0.3, 2.5]))
    mom = solve_momenta(params, spec)
    with pytest.warns(UserWarning, match="outside the momenta grid .* at step"):
        traj = whole(integrate)(params, spec, state, IntegratorConfig(1e-3, 2.0), momenta=mom)
    rep = drift_report(traj)
    assert np.isnan(rep["dJ1"]) and np.isnan(rep["dJ2"])
    assert rep["dE"] <= 1e-10  # energy is grid-free and stays certified


def test_unexpected_momenta_errors_propagate(routh_preset, monkeypatch):
    # Only DomainError (off the momenta grid) degrades to NaN; anything
    # else is a bug and must surface.
    params, spec = routh_preset
    state = StateGM(np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0]))

    def broken(self, tau1):
        raise RuntimeError("broken lookup")

    momenta = solution_for(params, spec)
    monkeypatch.setattr(MomentaSolution, "eval", broken)
    with pytest.raises(RuntimeError, match="broken lookup"):
        whole(integrate)(params, spec, state, IntegratorConfig(1e-2, 0.1), momenta)


def test_closed_form_momenta_do_not_warn_at_the_pole(routh_preset):
    # Upright spinning equilibrium: gamma3 = 1 throughout, but the routh
    # closed forms are valid there, so no pole warning is appropriate.
    params, spec = routh_preset
    state = StateGM(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = whole(integrate)(params, spec, state, IntegratorConfig(1e-3, 0.5), solution_for(params, spec))
    rep = drift_report(traj)
    assert rep["dE"] == 0.0 and rep["dJ1"] == 0.0 and rep["dJ2"] == 0.0


def test_rate_law_anchor(worked_params, worked_spec, worked_state):
    rl = nonconservation_rates(worked_params, worked_spec, worked_state)
    assert rl.dj1 == pytest.approx(4.0 / 9.0, rel=1e-13)
    assert rl.dj1 == pytest.approx(rl.pred1, rel=1e-12)
    assert rl.dj2 == pytest.approx(rl.pred2, rel=1e-12, abs=1e-12)


def test_rate_law_random_states(ellipsoid_preset):
    params, spec = ellipsoid_preset
    for state in make_states(17, 10):
        rl = nonconservation_rates(params, spec, state)
        scale = max(abs(rl.pred1), abs(rl.pred2), 1e-6)
        assert abs(rl.dj1 - rl.pred1) / scale <= 1e-9
        assert abs(rl.dj2 - rl.pred2) / scale <= 1e-9


def test_reconstruction_tracks_gamma(routh_preset):
    params, spec = routh_preset
    state = StateGM(np.array([0.6, 0.0, 0.8]), np.array([1.0, 2.0, 3.0]))
    traj = whole(integrate)(params, spec, state, IntegratorConfig(1e-3, 1.0), solution_for(params, spec))
    g0 = np.array([[0.8, 0.0, -0.6], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
    full = reconstruct_full(params, spec, traj, g0, (0.0, 0.0))
    assert len(full) == len(traj)
    worst = 0.0
    for (g, _), row in zip(full, traj):
        assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-9
        worst = max(worst, float(np.max(np.abs(g[2] - row[1:4]))))
    assert worst <= 1e-6
