"""Stacked check records: one array pass over all samples against the
per-sample bodies it replaced (``oracles.per_sample``).

A record whose value at a sample involves no matrix product keeps its bits;
one that contracts a bracket matrix or trivector sums in another order than
the per-sample ``@`` and may move by rounding: at most 1e-14 absolute on the
frozen ``check`` configs.  On drawn stacks the bound scales with the size of
the bracket terms, which grow as |M|^2: a 4,000-stack run at |M| <= 3 moved
casimir-J1 by 1.26e-14.  The stacked kernels take one state as well as a
stack, and one state gives the bits of a stack of one.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nonholo import (BodyParams, ProfileSpec, casimir_residuals, certify, nonconservation_rates, particle_bracket,
                     pushforward_residual, reduced_bivector_tau, solution_for)
from nonholo.cli import grid_half, parse_config, sample_particle, sample_state
from nonholo.particle import COORDINATES, MOMENTUM, particle_bivector
from nonholo.phase import invariants
from oracles import same_bits
from test_cli import ELLIPSOID_RAW, PARTICLE_RAW, ROUTH_RAW

#: The per-sample records whose values involve no matrix product
EXACT = {"qp-linearity", "rate-law", "relation-residual", "chaplygin-P-zero"}
ROUNDING = 1e-14

BODIES = {
    "routh": (BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.routh(1.0, 0.1)),
    "ellipsoid": (BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.ellipsoid(2.0, 1.0)),
    "balanced": (BodyParams(1.3, 0.7, 2.1), ProfileSpec.ellipsoid(1.5, 1.5)),
}
#: Each body's momenta on a coarse grid that reaches past |tau1| = 0.95
MOMENTA = {name: solution_for(params, spec, 1e-2, 1e-3) for name, (params, spec) in BODIES.items()}


def per_sample_records(subject):
    return [rec for rec in subject.records if rec.name in oracles.SOLID_MEASURES | oracles.PARTICLE_MEASURES]


def assert_records_match_the_per_sample_bodies(subject, rounding=ROUNDING):
    records = per_sample_records(subject)
    assert records
    for rec in records:
        stacked, reference = rec.measure(subject), oracles.per_sample(rec.name, subject)
        assert stacked.shape == reference.shape, rec.name
        if rec.name in EXACT:
            assert same_bits(stacked, reference), rec.name
        else:
            assert np.max(np.abs(stacked - reference)) <= rounding, rec.name
        (result,) = certify.run([rec], subject)
        assert abs(result.measured - oracles.nan_max(reference.tolist())) <= rounding, rec.name


def check_subject(raw):
    """The subject ``nonholo check`` certifies for the config ``raw``."""
    cfg = parse_config(json.dumps(raw))
    if cfg.system == "particle":
        return certify.Particle([sample_particle(cfg.seed, k) for k in range(cfg.samples)])
    cap = min(0.95, grid_half(cfg.delta, cfg.h) * cfg.h)
    states = [sample_state(cfg.seed, k, cap) for k in range(cfg.samples)]
    return certify.solid_subject(cfg.body, cfg.profile, states, cfg.delta, cfg.h)


@pytest.mark.parametrize("raw", [ROUTH_RAW, ELLIPSOID_RAW, PARTICLE_RAW], ids=["routh", "ellipsoid", "particle"])
def test_frozen_check_configs_match_the_per_sample_bodies(raw):
    assert_records_match_the_per_sample_bodies(check_subject(raw))


@st.composite
def solid_states(draw):
    """A state with gamma3 in [-0.95, 0.95], often exactly +-0.95, gamma on the
    unit sphere to rounding, and M in [-3, 3]^3."""
    g3 = draw(st.sampled_from([0.95, -0.95]) | st.floats(-0.95, 0.95))
    phi, r = draw(st.floats(0.0, 2.0 * math.pi)), math.sqrt(1.0 - g3 * g3)
    return [r * math.cos(phi), r * math.sin(phi), g3, *draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BODIES)), st.lists(solid_states(), min_size=1, max_size=8))
def test_drawn_solid_stacks_match_the_per_sample_bodies(body, states):
    params, spec = BODIES[body]
    scale = max(1.0, float(np.max(np.abs(np.array(states)[:, 3:])))) ** 2
    assert_records_match_the_per_sample_bodies(certify.Solid(params, spec, states, MOMENTA[body], None),
                                               ROUNDING * scale)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 5), min_size=1, max_size=8))
def test_drawn_particle_stacks_match_the_per_sample_bodies(points):
    assert_records_match_the_per_sample_bodies(certify.Particle(points))


def test_the_solid_records_read_the_jet_pass_matrices(monkeypatch):
    # The Casimir and pushforward records take the gauged matrices of the jet
    # pass (``certify``'s own binding); no record builds one state's matrix.
    def refuse(*args):
        raise AssertionError("a record built a bracket matrix outside the jet pass")

    monkeypatch.setattr("nonholo.brackets.bivector_packed", refuse)
    subject = check_subject(dict(ELLIPSOID_RAW, samples=6))
    assert all(r.status == "pass" for r in certify.run(certify.SOLID, subject))


@pytest.mark.parametrize("body", sorted(BODIES))
def test_one_state_is_a_stack_of_one(body):
    params, spec = BODIES[body]
    momenta = MOMENTA[body]
    for x in check_subject(dict(ELLIPSOID_RAW, samples=5)).x:
        one = casimir_residuals(params, spec, x, momenta)
        stack = casimir_residuals(params, spec, x[None], momenta)
        assert all(isinstance(v, float) for v in vars(one).values())
        assert same_bits(list(vars(one).values()), [v[0] for v in vars(stack).values()])
        assert same_bits(pushforward_residual(params, spec, x), pushforward_residual(params, spec, x[None])[0])
        tau = invariants(x)
        assert same_bits(reduced_bivector_tau(params, spec, tau), reduced_bivector_tau(params, spec, tau[None])[0])
        one, stack = nonconservation_rates(params, spec, x), nonconservation_rates(params, spec, x[None])
        assert same_bits(list(vars(one).values()), [v[0] for v in vars(stack).values()])


def test_one_particle_point_is_a_stack_of_one():
    for v in np.random.default_rng(5).uniform(-2.0, 2.0, (20, 5)):
        assert same_bits(particle_bivector(v), particle_bivector(v[None])[0])
        for f in COORDINATES:
            one = particle_bracket(MOMENTUM, f, v)
            assert isinstance(one, float)
            assert same_bits(one, particle_bracket(MOMENTUM, f, v[None])[0])
