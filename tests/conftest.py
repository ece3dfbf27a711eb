"""Shared fixtures: the worked routh state, the two presets, and the
session-scoped reference trajectories that several test modules certify
against (integrating them once keeps the suite fast)."""
import numpy as np
import pytest

from nonholo import (
    BodyParams,
    IntegratorConfig,
    ProfileSpec,
    StateGM,
    integrate,
    solution_for,
    solve_momenta,
)

# Hand-checked reference point used for every frozen anchor: a balanced
# unit sphere (routh(1, 0), m=1, I=diag(2,2,3)) at gamma=(0.6, 0, 0.8),
# M=(1, 2, 3).  Everything about it works out in small rationals.
WORKED_GAMMA = (0.6, 0.0, 0.8)
WORKED_M = (1.0, 2.0, 3.0)

# Generic, pole-safe starts for the two preset bodies (|gamma3| stays
# below 0.95 / 0.9966 over the t=10 reference runs).
ROUTH_START = ((0.6, 0.0, 0.8), (1.0, 2.0, 3.0))
ELLIPSOID_START = ((3.0 / 7.0, 2.0 / 7.0, 6.0 / 7.0), (1.2, -0.8, 1.0))

RUN_CFG = IntegratorConfig(dt=1e-3, t_final=10.0)


def make_states(seed: int, n: int, cap: float = 0.95) -> list[StateGM]:
    """n reproducible random states with |gamma3| < cap."""
    rng = np.random.default_rng(seed)
    out: list[StateGM] = []
    while len(out) < n:
        g = rng.standard_normal(3)
        g /= np.sqrt(g @ g)
        if abs(g[2]) >= cap:
            continue
        out.append(StateGM(g, rng.uniform(-3.0, 3.0, 3)))
    return out


@pytest.fixture(scope="session")
def worked_params():
    return BodyParams(m=1.0, I1=2.0, I3=3.0)


@pytest.fixture(scope="session")
def worked_spec():
    return ProfileSpec.routh(1.0, 0.0)


@pytest.fixture()
def worked_state():
    return StateGM(np.array(WORKED_GAMMA), np.array(WORKED_M))


@pytest.fixture(scope="session")
def routh_preset():
    return BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8), ProfileSpec.routh(1.0, 0.1)


@pytest.fixture(scope="session")
def ellipsoid_preset():
    return BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8), ProfileSpec.ellipsoid(2.0, 1.0)


@pytest.fixture(scope="session")
def ellipsoid_momenta(ellipsoid_preset):
    params, spec = ellipsoid_preset
    return solve_momenta(params, spec)


@pytest.fixture(scope="session")
def routh_traj(routh_preset):
    params, spec = routh_preset
    g0, m0 = ROUTH_START
    return integrate(params, spec, StateGM(np.array(g0), np.array(m0)), RUN_CFG, solution_for(params, spec))


@pytest.fixture(scope="session")
def ellipsoid_traj(ellipsoid_preset, ellipsoid_momenta):
    params, spec = ellipsoid_preset
    g0, m0 = ELLIPSOID_START
    return integrate(
        params, spec, StateGM(np.array(g0), np.array(m0)), RUN_CFG, momenta=ellipsoid_momenta
    )
