"""Top-level certification battery.

Each test certifies one headline claim at its stated tolerance and prints a
single PASS/FAIL line (visible with plain ``pytest``, no -s needed), so a run
of this module doubles as a human-readable scorecard.  Tolerances here are
contracts, not measurements: they must not be tightened or loosened to track
the implementation.
"""
import itertools

import numpy as np
import pytest

from conftest import ELLIPSOID_START, RUN_CFG, WORKED_GAMMA, WORKED_M, make_states
from nonholo import (
    BodyParams,
    BracketKind,
    IntegratorConfig,
    ParticleState,
    ProfileSpec,
    StateGM,
    casimir_residuals,
    default_momenta,
    drift_report,
    eval_profile,
    integrate,
    invariants,
    jacobiator,
    nonconservation_rates,
    ode_residual,
    particle_integrate,
    particle_jacobiator_reduced,
    profile_scalars,
    pushforward_residual,
    qp_matrix,
    qpl_values,
    routh_closed_form,
    routh_pair,
    solve_momenta,
)
from nonholo.brackets import J2_COMPONENT, TAU1, TAU4, TAUS


def _gate(capsys, tag, label, measured, tolerance, passed=None):
    if passed is None:
        passed = measured < tolerance
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] {verdict} {label}: {measured} (tolerance {tolerance})")
    assert passed, f"{label}: measured {measured}, tolerance {tolerance}"


@pytest.fixture(scope="module")
def chaplygin_run():
    """Balanced-ellipsoid reference: solved momenta plus a t=10 trajectory."""
    params = BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8)
    spec = ProfileSpec.ellipsoid(2.0, 2.0)
    momenta = solve_momenta(params, spec)
    g0, m0 = ELLIPSOID_START
    traj = integrate(params, spec, StateGM(np.array(g0), np.array(m0)), RUN_CFG, momenta=momenta)
    return params, spec, momenta, traj


def test_particle_first_integrals(capsys):
    traj = particle_integrate(ParticleState(0.0, 0.0, 0.0, 1.0, 1.0), IntegratorConfig(1e-3, 10.0))
    drift = max(
        max(abs(s.J - traj[0].J) for s in traj),
        max(abs(s.E - traj[0].E) for s in traj),
    )
    _gate(capsys, "A01", "particle J and H conserved over t=10", drift, 1e-8)


def test_particle_reduced_jacobiator(capsys):
    rng = np.random.default_rng(11)
    worst = max(particle_jacobiator_reduced(rng.uniform(-2.0, 2.0, 5)) for _ in range(100))
    _gate(capsys, "A02", "reduced particle bracket satisfies Jacobi", worst, 1e-7)


def test_trajectory_conservation(capsys, routh_traj, ellipsoid_traj):
    dr = drift_report(routh_traj)
    de = drift_report(ellipsoid_traj)
    worst_r = max(dr["dE"], dr["dJ1"], dr["dJ2"])
    worst_e = max(de["dE"], de["dJ1"], de["dJ2"])
    ok = worst_r < 1e-6 and worst_e < 1e-5
    _gate(
        capsys,
        "A03",
        "E, J1, J2 conserved over t=10",
        f"routh {worst_r}, ellipsoid {worst_e}",
        "1e-06 / 1e-05",
        passed=ok,
    )


def test_momentum_rate_law(capsys, worked_params, worked_spec, routh_preset, ellipsoid_preset,
                           routh_traj, ellipsoid_traj):
    # frozen anchor first: dj1/dt = +4/9 at the worked state
    ev = eval_profile(worked_spec, WORKED_GAMMA[2])
    anchor = nonconservation_rates(
        worked_params, ev, StateGM(np.array(WORKED_GAMMA), np.array(WORKED_M))
    )
    assert anchor.dj1 == pytest.approx(4.0 / 9.0, rel=1e-12)

    worst = 0.0
    for (params, spec), traj in ((routh_preset, routh_traj), (ellipsoid_preset, ellipsoid_traj)):
        for sample in traj[::10]:
            rl = nonconservation_rates(params, eval_profile(spec, sample.state.gamma[2]), sample.state)
            scale = max(abs(rl.pred1), abs(rl.pred2), 1e-6)
            worst = max(worst, abs(rl.dj1 - rl.pred1) / scale, abs(rl.dj2 - rl.pred2) / scale)
    _gate(capsys, "A04", "momenta drift at the predicted rate along trajectories", worst, 1e-5)


def test_ungauged_jacobiator_closed_form(capsys, worked_params, worked_spec, routh_preset,
                                         ellipsoid_preset):
    anchor = jacobiator(
        worked_params, worked_spec, TAU1, J2_COMPONENT, TAU4,
        StateGM(np.array(WORKED_GAMMA), np.array(WORKED_M)), BracketKind.NH,
    )
    assert anchor == pytest.approx(-0.12, abs=2e-5)

    worst = 0.0
    for params, spec in (routh_preset, ellipsoid_preset):
        for st in make_states(17, 100):
            jac = jacobiator(params, spec, TAU1, J2_COMPONENT, TAU4, st, BracketKind.NH)
            ev = eval_profile(spec, st.gamma[2])
            sc = profile_scalars(params, ev, st.gamma)
            closed = -params.m * ev.rho * sc.gs * (1.0 - st.gamma[2] ** 2) / sc.A1
            worst = max(worst, abs(jac - closed) / abs(closed))
    _gate(capsys, "A05", "ungauged Jacobiator matches its closed form", worst, 1e-4)


def test_gauged_jacobi_identity(capsys, routh_preset, ellipsoid_preset):
    worst = 0.0
    for params, spec in (routh_preset, ellipsoid_preset):
        for st in make_states(23, 100):
            for a, b, c in itertools.combinations(range(5), 3):
                worst = max(
                    worst,
                    abs(jacobiator(params, spec, TAUS[a], TAUS[b], TAUS[c], st, BracketKind.GAUGED)),
                )
    _gate(capsys, "A06", "gauged bracket satisfies Jacobi on all invariant triples", worst, 1e-6)


def test_gauge_momenta_are_casimirs(capsys, routh_preset, ellipsoid_preset, ellipsoid_momenta):
    worst = 0.0
    rp, rs = routh_preset
    ep, es = ellipsoid_preset
    for params, spec, momenta in ((rp, rs, default_momenta(rp, rs)), (ep, es, ellipsoid_momenta)):
        for st in make_states(29, 100):
            res = casimir_residuals(params, spec, st, momenta)
            worst = max(worst, res.max_j1, res.max_j2, res.involution)
    _gate(capsys, "A07", "J1, J2 are Casimirs and in involution", worst, 1e-8)


def test_qp_linearity_and_kernel(capsys, routh_preset, ellipsoid_preset):
    worst = 0.0
    for params, spec in (routh_preset, ellipsoid_preset):
        for st in make_states(31, 100):
            inv = invariants(st)
            ev = eval_profile(spec, st.gamma[2])
            vals = qpl_values(params, ev, st)
            qp = qp_matrix(params, spec, inv.t1)
            den = max(abs(vals.Q), abs(vals.P), 1e-3)
            worst = max(
                worst,
                abs(qp[0, 0] * inv.t3 + qp[0, 1] * inv.t4 - vals.Q) / den,
                abs(qp[1, 0] * inv.t3 + qp[1, 1] * inv.t4 - vals.P) / den,
            )
    assert worst < 1e-9

    rng = np.random.default_rng(37)
    params = BodyParams(m=1.0, I1=2.0, I3=3.0, grav=9.8)
    kernel = 0.0
    for _ in range(1000):
        r = rng.uniform(0.2, 2.0)
        l = r * rng.uniform(-0.95, 0.95)
        t1 = rng.uniform(-0.999, 0.999)
        qp = qp_matrix(params, ProfileSpec.routh(r, l), t1)
        scale = max(1.0, float(np.max(np.abs(qp))))
        kernel = max(
            kernel,
            abs(qp[0, 0] * l + qp[1, 0] * r) / scale,
            abs(qp[0, 1] * l + qp[1, 1] * r) / scale,
        )
    ok = kernel < 1e-12
    _gate(
        capsys,
        "A08",
        "coefficient matrix is linear in (tau3, tau4) with (l, r) kernel",
        f"linearity {worst}, kernel {kernel}",
        "1e-09 / 1e-12",
        passed=worst < 1e-9 and ok,
    )


def test_routh_closed_forms_solve_ode(capsys, routh_preset):
    params, spec = routh_preset
    pair1 = routh_pair(params, spec, 0)
    pair2 = routh_pair(params, spec, 1)
    residual = 0.0
    for t1 in np.linspace(-0.999, 0.999, 1000):
        residual = max(
            residual,
            ode_residual(params, spec, pair1, float(t1)),
            ode_residual(params, spec, pair2, float(t1)),
        )
    assert residual < 1e-9

    # the closed forms must lie in the span of the numeric solutions, whose
    # basis is normalized at the central grid node
    numeric = solve_momenta(params, spec)
    c1, c2 = routh_closed_form(params, spec.p1, spec.p2, 0.0)
    span = 0.0
    for t1, row in zip(numeric.grid, numeric.pairs):
        cf1, cf2 = routh_closed_form(params, spec.p1, spec.p2, float(t1))
        for coeff, cf in ((c1, cf1), (c2, cf2)):
            span = max(
                span,
                abs(coeff[0] * row[0] + coeff[1] * row[2] - cf[0]),
                abs(coeff[0] * row[1] + coeff[1] * row[3] - cf[1]),
            )
    ok = residual < 1e-9 and span < 1e-6
    _gate(
        capsys,
        "A09",
        "closed-form pairs solve the coefficient equation and span the numeric solution",
        f"residual {residual}, span {span}",
        "1e-09 / 1e-06",
        passed=ok,
    )


def test_balanced_ellipsoid_degeneration(capsys, chaplygin_run):
    params, spec, momenta, traj = chaplygin_run
    pmax = 0.0
    for t1 in momenta.grid:
        qp = qp_matrix(params, spec, float(t1))
        pmax = max(pmax, abs(qp[1, 0]), abs(qp[1, 1]))
    for st in make_states(41, 100):
        ev = eval_profile(spec, st.gamma[2])
        pmax = max(pmax, abs(qpl_values(params, ev, st).P))
    drift = max(abs(s.j2 - traj[0].j2) for s in traj)
    ok = pmax < 1e-12 and drift < 1e-8
    _gate(
        capsys,
        "A10",
        "balanced ellipsoid: P vanishes and <gamma, M> is conserved",
        f"P {pmax}, drift {drift}",
        "1e-12 / 1e-08",
        passed=ok,
    )


def test_reduced_table_and_relation(capsys, routh_preset, ellipsoid_preset, routh_traj,
                                    ellipsoid_traj, chaplygin_run):
    worst = 0.0
    for params, spec in (routh_preset, ellipsoid_preset):
        for st in make_states(43, 100):
            worst = max(worst, pushforward_residual(params, spec, st))

    relation = 0.0
    for traj in (routh_traj, ellipsoid_traj, chaplygin_run[3]):
        relation = max(relation, max(abs(s.inv.relation_residual()) for s in traj))
    ok = worst < 1e-8 and relation < 1e-8
    _gate(
        capsys,
        "A11",
        "bracket pushforward matches the invariant table; relation holds on trajectories",
        f"table {worst}, relation {relation}",
        "1e-08 / 1e-08",
        passed=ok,
    )
