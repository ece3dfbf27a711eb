"""The check registry: well-formed records, the batteries ``check`` runs, grading, and the span fold."""
import contextlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from nonholo import BodyParams, MomentaSolution, NonholoError, ProfileSpec, certify, closed_form_momenta
from nonholo.cli import check_subject, cmd_check, cmd_momenta, parse_config, sample_state
from nonholo.momenta import _grid, march
from oracles import same_bits
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


#: Routh bodies: moderate ones, and a share whose m, I1 or I3 is too large
#: for floating-point range somewhere in the march or the closed forms.
_routh_bodies = st.builds(
    lambda body, huge, grav, r, lean: (BodyParams(*{**body, **huge}.values(), grav), ProfileSpec.routh(r, lean * r)),
    body=st.fixed_dictionaries({"m": st.floats(0.1, 10.0), "I1": st.floats(0.1, 10.0), "I3": st.floats(0.1, 10.0)}),
    huge=st.sampled_from([{}] * 5 + [{"m": 1e300}, {"I1": 1e300}, {"I1": 1e308, "I3": 1e308}, {"I3": 1e308}]),
    grav=st.sampled_from([0.0, 9.8]),
    r=st.floats(0.1, 10.0),
    lean=st.floats(-0.99, 0.99),
)
#: (delta, h) grids, with steps that do not divide 1 - delta (3.7e-4 does not)
_grids = st.tuples(st.floats(1e-3, 0.1), st.one_of(st.sampled_from([1e-3, 3.7e-4]), st.floats(2.5e-4, 1e-3)))


@settings(max_examples=40, deadline=None)
@given(body=_routh_bodies, grid=_grids)
@example(body=(BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.routh(1.0, 0.1)), grid=(1e-3, 1e-4))
@example(body=(BodyParams(1.0, 1e308, 1e308, 9.8), ProfileSpec.routh(1.0, 0.1)), grid=(1e-3, 3.7e-4))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_span_fold_has_the_bits_of_the_whole_table_span(body, grid):
    # The march's chunks folded by certify.Span against the whole-table
    # measure on the same rows, NaN included; then span-containment, and
    # momenta's max_closed_form_deviation, on the config of the same grid.
    (params, spec), (delta, h) = body, grid
    nodes, span = _grid(delta, h), certify.Span(params, spec)
    table, n = np.empty((len(nodes), 4)), len(nodes) // 2
    with contextlib.suppress(NonholoError), np.errstate(all="ignore"):
        for k, rows in march(params, spec, delta, h):
            span.add(k * h, rows)
            table[n + k] = rows
    whole = oracles.span_residual(params, spec, MomentaSolution(params, spec, nodes, table),
                                  closed_form_momenta(params, spec, delta, h).pairs)
    assert same_bits(span.worst, whole)
    raw = {"m": params.m, "I1": params.I1, "I3": params.I3, "grav": params.grav, "r": spec.p1, "l": spec.p2}
    cfg = parse_config(json.dumps(dict(ROUTH_RAW, params=raw, samples=1, delta=delta, h=h)))
    # check's measure on check's subject: its other records may measure NaN
    # on a finite table, and then no report carries span-containment
    subject, measure = check_subject(cfg), certify.RECORDS["span-containment"].measure
    if not np.isfinite(table).all():
        with pytest.raises(NonholoError, match="momenta table not finite at"):
            measure(subject)
        with pytest.raises(NonholoError, match="momenta table not finite at"):
            cmd_momenta(cfg, os.devnull)
        return
    assert same_bits(measure(subject), whole)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cmd_momenta(cfg, os.devnull) == 0
    assert same_bits(json.loads(out.getvalue())["max_closed_form_deviation"], whole)
