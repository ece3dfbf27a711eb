"""The check registry: well-formed records, the batteries ``check`` runs, grading."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nonholo import BodyParams, ProfileSpec, certify, closed_form_momenta
from nonholo.cli import cmd_check, parse_config, sample_state
from test_cli import ELLIPSOID_RAW, PARTICLE_RAW, ROUTH_RAW

SOLID_NAMES = {
    "qp-linearity",
    "jacobi-gauged",
    "jacobi-ungauged-closed-form",
    "casimir-J1",
    "casimir-J2",
    "involution",
    "vertical-generator",
    "pushforward-table",
    "rate-law",
    "relation-residual",
    "bracket-dynamics-consistency",
}
PARTICLE_NAMES = {
    "energy-drift",
    "momentum-drift",
    "reduced-jacobi",
    "jacobi-negative-control",
    "jacobi-unreduced-closed-form",
    "casimir-momentum",
    "rhs-anchor",
}
BALANCED_RAW = dict(ELLIPSOID_RAW, params=dict(ELLIPSOID_RAW["params"], b=2.0, c=2.0))


def test_records_are_well_formed():
    table = certify.SOLID + certify.ROUTH + certify.BALANCED + certify.PARTICLE
    assert len({rec.name for rec in table}) == len(table) == len(certify.RECORDS)
    for rec in table:
        assert rec.tolerance > 0, rec.name
        assert rec.mode in ("upper", "lower"), rec.name


@pytest.mark.parametrize(
    "raw,expected",
    [
        (ROUTH_RAW, SOLID_NAMES | {"kernel-pair", "closed-form-ode-residual", "span-containment"}),
        (ELLIPSOID_RAW, SOLID_NAMES),
        (BALANCED_RAW, SOLID_NAMES | {"chaplygin-P-zero"}),
        (PARTICLE_RAW, PARTICLE_NAMES),
    ],
    ids=["routh", "ellipsoid", "balanced", "particle"],
)
def test_check_runs_the_battery_of_its_system(raw, expected):
    report = cmd_check(parse_config(json.dumps(dict(raw, samples=1))))
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert set(names) == expected
    assert report.passed


def test_grading_is_strict_in_both_modes():
    at_tolerance = [
        certify.Record("upper-at-tolerance", 1.0, "placeholder", "upper", lambda s: 1.0),
        certify.Record("lower-at-tolerance", 1.0, "placeholder", "lower", lambda s: 1.0),
        certify.Record("lower-above", 1.0, "placeholder", "lower", lambda s: 2.0),
    ]
    results = certify.run(at_tolerance, None)
    assert [r.status for r in results] == ["fail", "fail", "pass"]
    assert [r.mode for r in results] == ["upper", "lower", "lower"]


def test_negative_control_fails_where_the_obstruction_vanishes():
    rec = certify.RECORDS["jacobi-negative-control"]
    assert rec.mode == "lower"
    # the (x, px, py) Jacobiator is y/(1+y^2): zero at y = 0, 1/2 at y = 1
    (on_axis,) = certify.run([rec], certify.Particle([np.array([0.3, 0.0, -1.0, 0.5, 0.2])]))
    assert on_axis.measured < rec.tolerance
    assert on_axis.status == "fail"
    (off_axis,) = certify.run([rec], certify.Particle([np.array([0.3, 1.0, -1.0, 0.5, 0.2])]))
    assert off_axis.measured == pytest.approx(0.5, abs=1e-6)
    assert off_axis.status == "pass"


def test_a_nan_sample_is_not_a_pass():
    # The second sample is NaN; a plain max([0.0, 1e-20, nan]) would report 1e-20.
    measure = lambda s: np.array([1e-20, math.nan, 2e-20, math.nan])  # noqa: E731
    (result,) = certify.run([certify.Record("nan", 1e-8, "placeholder", "upper", measure)], None)
    assert math.isnan(result.measured) and result.status == "fail"
    assert result.worst_sample == 1  # the first NaN


def test_worst_sample_is_the_first_maximum_and_none_for_a_subject_value():
    records = [
        certify.Record("per-sample", 1e-8, "placeholder", "upper", lambda s: np.array([1e-20, 3e-20, 3e-20])),
        certify.Record("all-zero", 1e-8, "placeholder", "upper", lambda s: np.zeros(2)),
        certify.Record("subject", 1e-8, "placeholder", "upper", lambda s: 3e-20),
    ]
    assert [(r.measured, r.worst_sample) for r in certify.run(records, None)] == [(3e-20, 1), (0.0, 0), (3e-20, None)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_measurements_of_an_overflowing_body_are_not_zero():
    # I1 = I3 = 1e308 overflows A1*A3; these records measured 0.0 and passed
    # while every sample was NaN, because max dropped the NaNs.
    params, spec = BodyParams(1.0, 1e308, 1e308, 9.8), ProfileSpec.routh(1.0, 0.1)
    states = [sample_state(0, k) for k in range(3)]
    subject = certify.Solid(params, spec, states, closed_form_momenta(params, spec), None)
    names = ("qp-linearity", "involution", "casimir-J2", "kernel-pair", "closed-form-ode-residual")
    for result in certify.run([certify.RECORDS[n] for n in names], subject):
        assert math.isnan(result.measured) and result.status == "fail", result.name


def test_readme_lists_exactly_the_records():
    # One row per record of the README's table: name, systems, claim, mode and tolerance.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = re.compile(r"^\| `([a-zA-Z0-9-]+)` \| (\w+) \| (.+) \| ([<>]) (\S+) \|$", re.MULTILINE)
    listed = {name: (system, claim, mode, float(tol)) for name, system, claim, mode, tol in row.findall(readme)}
    systems = {"solid": certify.SOLID, "Routh": certify.ROUTH, "balanced": certify.BALANCED,
               "particle": certify.PARTICLE}
    records = {rec.name: (system, rec.claim, "<" if rec.mode == "upper" else ">", rec.tolerance)
               for system, recs in systems.items() for rec in recs}
    assert listed == records
