"""Top-level certification battery.

Each test certifies one headline claim and prints a single PASS/FAIL line
(visible with plain ``pytest``, no -s needed), so a run of this module
doubles as a human-readable scorecard.  The measurements and tolerances are
the ``nonholo.certify`` records that ``nonholo check`` runs, taken over this
module's own seeded states and fixtures.  A contract that differs from every
record's keeps a named tolerance below, with its reason.  Tolerances are
contracts, not measurements: they must not be tightened or loosened to
track the implementation.
"""
import numpy as np
import pytest

from conftest import ELLIPSOID_START, RUN_CFG, make_states
from nonholo import (BodyParams, BracketKind, ProfileSpec, StateGM, closed_form_momenta, drift_report, integrate,
                     jacobiator, nonconservation_rates, qp_matrix, solution_for, solve_momenta)
from nonholo.brackets import J2_COMPONENT, TAU1, TAU4
from nonholo.certify import RECORDS, Particle, Solid, run
from nonholo.dynamics import COLUMNS, drift

# A03: drift of E, J1, J2 over the t=10 reference trajectories (no record).
DRIFT_ROUTH, DRIFT_ELLIPSOID = 1e-6, 1e-5
# A04: the rate law along the reference trajectories, not rate-law's sampled states.
RATE_ON_TRAJECTORIES = 1e-5
# A08: the kernel scaled by max|[QP]| over random (r, l), not kernel-pair's one body.
KERNEL_OVER_BODIES = 1e-12
# A10: P over the solve grid as well as at states, and the j2 drift of a trajectory.
P_ON_GRID_AND_STATES, J2_DRIFT = 1e-12, 1e-8
# A11: the relation along integrated trajectories, not relation-residual's sampled states.
RELATION_ON_TRAJECTORIES = 1e-8


def _certify(names, subjects):
    """(worst measure of the named records over the subjects, their tightest tolerance)."""
    records = [RECORDS[name] for name in names]
    return max(r.measured for s in subjects for r in run(records, s)), min(rec.tolerance for rec in records)


def _solids(presets, states):
    """One Solid per (params, spec) preset over the same states, without momenta."""
    return [Solid(params, spec, states, None, None) for params, spec in presets]


def _gate(capsys, tag, label, *parts):
    """Print one PASS/FAIL line and assert it.  A part is (measured, tolerance),
    or (name, measured, tolerance) when a claim has several parts."""
    passed = all(part[-2] < part[-1] for part in parts)
    measured = ", ".join(" ".join(str(v) for v in part[:-1]) for part in parts)
    tolerance = " / ".join(str(part[-1]) for part in parts)
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
    result = _certify(["momentum-drift", "energy-drift"], [Particle([])])
    _gate(capsys, "A01", "particle J and H conserved over t=10", result)


def test_particle_reduced_jacobiator(capsys):
    rng = np.random.default_rng(11)
    points = [rng.uniform(-2.0, 2.0, 5) for _ in range(100)]
    result = _certify(["reduced-jacobi"], [Particle(points)])
    _gate(capsys, "A02", "reduced particle bracket satisfies Jacobi", result)


def test_trajectory_conservation(capsys, routh_traj, ellipsoid_traj):
    dr = drift_report(routh_traj)
    de = drift_report(ellipsoid_traj)
    _gate(
        capsys, "A03", "E, J1, J2 conserved over t=10",
        ("routh", max(dr["dE"], dr["dJ1"], dr["dJ2"]), DRIFT_ROUTH),
        ("ellipsoid", max(de["dE"], de["dJ1"], de["dJ2"]), DRIFT_ELLIPSOID),
    )


def test_momentum_rate_law(capsys, worked_params, worked_spec, worked_state, routh_preset,
                           ellipsoid_preset, routh_traj, ellipsoid_traj):
    # frozen anchor first: dj1/dt = +4/9 at the worked state
    anchor = nonconservation_rates(worked_params, worked_spec, worked_state)
    assert anchor.dj1 == pytest.approx(4.0 / 9.0, rel=1e-12)

    subjects = [
        Solid(params, spec, [row[1:7] for row in traj[::10]], None, None)
        for (params, spec), traj in ((routh_preset, routh_traj), (ellipsoid_preset, ellipsoid_traj))
    ]
    worst, _ = _certify(["rate-law"], subjects)
    _gate(capsys, "A04", "momenta drift at the predicted rate along trajectories",
          (worst, RATE_ON_TRAJECTORIES))


def test_ungauged_jacobiator_closed_form(capsys, worked_params, worked_spec, worked_state, routh_preset,
                                         ellipsoid_preset):
    anchor = jacobiator(worked_params, worked_spec, TAU1, J2_COMPONENT, TAU4, worked_state, BracketKind.NH)
    assert anchor == pytest.approx(-0.12, abs=2e-5)

    subjects = _solids((routh_preset, ellipsoid_preset), make_states(17, 100))
    result = _certify(["jacobi-ungauged-closed-form"], subjects)
    _gate(capsys, "A05", "ungauged Jacobiator matches its closed form", result)


def test_gauged_jacobi_identity(capsys, routh_preset, ellipsoid_preset):
    subjects = _solids((routh_preset, ellipsoid_preset), make_states(23, 100))
    result = _certify(["jacobi-gauged"], subjects)
    _gate(capsys, "A06", "gauged bracket satisfies Jacobi on all invariant triples", result)


def test_gauge_momenta_are_casimirs(capsys, routh_preset, ellipsoid_preset, ellipsoid_momenta):
    (rp, rs), (ep, es) = routh_preset, ellipsoid_preset
    states = make_states(29, 100)
    subjects = [
        Solid(rp, rs, states, solution_for(rp, rs), None), Solid(ep, es, states, ellipsoid_momenta, None)
    ]
    result = _certify(["casimir-J1", "casimir-J2", "involution"], subjects)
    _gate(capsys, "A07", "J1, J2 are Casimirs and in involution", result)


def test_qp_linearity_and_kernel(capsys, routh_preset, ellipsoid_preset):
    linearity = _certify(["qp-linearity"], _solids((routh_preset, ellipsoid_preset), make_states(31, 100)))

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
    _gate(
        capsys, "A08", "coefficient matrix is linear in (tau3, tau4) with (l, r) kernel",
        ("linearity", *linearity), ("kernel", kernel, KERNEL_OVER_BODIES),
    )


def test_routh_closed_forms_solve_ode(capsys, routh_preset):
    # the closed forms must lie in the span of the numeric solutions, whose
    # basis is normalized at the central grid node
    params, spec = routh_preset
    subject = Solid(params, spec, [], closed_form_momenta(params, spec), solve_momenta(params, spec))
    _gate(
        capsys, "A09", "closed-form pairs solve the coefficient equation and span the numeric solution",
        ("residual", *_certify(["closed-form-ode-residual"], [subject])),
        ("span", *_certify(["span-containment"], [subject])),
    )


def test_balanced_ellipsoid_degeneration(capsys, chaplygin_run):
    params, spec, momenta, traj = chaplygin_run
    pmax = 0.0
    for t1 in momenta.grid:
        qp = qp_matrix(params, spec, float(t1))
        pmax = max(pmax, abs(qp[1, 0]), abs(qp[1, 1]))
    at_states, _ = _certify(["chaplygin-P-zero"], _solids([(params, spec)], make_states(41, 100)))
    j2_drift = drift(traj[:, COLUMNS.index("j2")])
    _gate(
        capsys, "A10", "balanced ellipsoid: P vanishes and <gamma, M> is conserved",
        ("P", max(pmax, at_states), P_ON_GRID_AND_STATES), ("drift", j2_drift, J2_DRIFT),
    )


def test_reduced_table_and_relation(capsys, routh_preset, ellipsoid_preset, routh_traj,
                                    ellipsoid_traj, chaplygin_run):
    table = _certify(["pushforward-table"], _solids((routh_preset, ellipsoid_preset), make_states(43, 100)))
    relation = max(drift_report(traj)["dRel"] for traj in (routh_traj, ellipsoid_traj, chaplygin_run[3]))
    _gate(
        capsys, "A11", "bracket pushforward matches the invariant table; relation holds on trajectories",
        ("table", *table), ("relation", relation, RELATION_ON_TRAJECTORIES),
    )
