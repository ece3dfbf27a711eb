"""Stacked bracket matrices and Jacobi trivectors from one jet pass, bit for bit.

``bivector_packed`` on an (m, 6) stack, and on its jet in the value part,
must give matrix by matrix the bits of its one-state calls, and those must
be the bits of the per-state numpy body it replaced
(``oracles.bivector_packed``).  The trivectors of a stack must be, row by
row, the bits of the trivector of one point, and must match the 5-point
stencil (``oracles.jacobi_trivector``) at its truncation floor.  Arrays are
compared as ``.view(np.int64)``, so signed zeros and NaN payloads count.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nonholo import (BodyParams, BracketKind, DomainError, ProfileSpec, bivector_packed, certify, eval_profile,
                     particle_jacobiator_reduced, particle_jacobiator_unreduced, qpl_values)
from nonholo.particle import particle_bivector, particle_trivector
from nonholo.smallalg import Jet, jacobi_trivector
from oracles import same_bits

from conftest import make_states

BODIES = {
    "routh": (BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.routh(1.0, 0.1)),
    "ellipsoid": (BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.ellipsoid(2.0, 1.0)),
    "balanced": (BodyParams(1.3, 0.7, 2.1), ProfileSpec.ellipsoid(1.5, 1.5)),
}
KINDS = (BracketKind.GAUGED, BracketKind.NH)

# exact poles, and zero components of either sign
SPECIAL_STATES = [
    [0.0, 0.0, 1.0, 0.0, 0.0, 3.0],
    [0.0, 0.0, -1.0, 1.0, -2.0, 0.5],
    [-0.0, 0.0, 1.0, -0.0, 0.0, -0.0],
    [0.0, -0.0, -1.0, -0.0, -0.0, 0.0],
    [0.6, 0.0, 0.8, 0.0, 0.0, 0.0],
    [0.0, -0.6, -0.8, 0.0, -0.0, 0.0],
]

signed_zero = st.sampled_from([0.0, -0.0])
coordinate = st.floats(-1.0, 1.0, allow_nan=False) | signed_zero
moment = st.floats(-5.0, 5.0, allow_nan=False) | signed_zero


@st.composite
def packed_states(draw):
    """A packed state with |gamma| = 1: a pole or a normalized direction."""
    if draw(st.booleans()):
        gamma = (draw(signed_zero), draw(signed_zero), draw(st.sampled_from([1.0, -1.0])))
    else:
        gamma = draw(st.tuples(coordinate, coordinate, coordinate).filter(lambda g: math.hypot(*g) > 1e-3))
        n = math.hypot(*gamma)
        gamma = tuple(c / n for c in gamma)
    return [*gamma, draw(moment), draw(moment), draw(moment)]


def assert_stack_is_each_state(params, spec, xs, kind):
    stack = bivector_packed(params, spec, Jet.seed(xs), kind).value
    assert stack.shape == (len(xs), 6, 6) and stack.flags.c_contiguous
    arrays = bivector_packed(params, spec, xs, kind)  # the stack without its derivative
    assert arrays.flags.c_contiguous and same_bits(arrays, stack)
    for x, pi in zip(xs, stack):
        one = bivector_packed(params, spec, x, kind)
        assert one.shape == (6, 6)
        assert same_bits(pi, one)
        assert same_bits(one, oracles.bivector_packed(params, spec, x, kind))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BODIES)), st.sampled_from(KINDS), st.lists(packed_states(), min_size=1, max_size=25))
def test_stacked_bivector_is_the_per_state_bivector(body, kind, states):
    params, spec = BODIES[body]
    assert_stack_is_each_state(params, spec, np.array(states), kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("m", [1, 25])
def test_stacks_of_one_and_of_a_stencil(body, kind, m):
    params, spec = BODIES[body]
    states = [s.packed() for s in make_states(m, m)]
    assert_stack_is_each_state(params, spec, np.array(states), kind)
    for special in SPECIAL_STATES:
        assert_stack_is_each_state(params, spec, np.array([special] * m), kind)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_gauge_fields_are_the_per_state_body(body):
    params, spec = BODIES[body]
    for x in [s.packed() for s in make_states(3, 30)] + [np.array(s) for s in SPECIAL_STATES]:
        ev = eval_profile(spec, x[2])
        new, old = qpl_values(params, ev, x), oracles.qpl_values(params, ev, x)
        assert same_bits([new.c3, new.Q, new.P], old[:3])
        assert same_bits(new.Lvec, old[3]) and same_bits(new.Kvec, old[4])


def test_a_stack_leaving_the_band_raises():
    params, spec = BODIES["ellipsoid"]
    xs = np.array([s.packed() for s in make_states(4, 5)])
    xs[3, 2] = 1.0 + 1e-6
    with pytest.raises(DomainError) as stacked:
        bivector_packed(params, spec, Jet.seed(xs), BracketKind.GAUGED)
    with pytest.raises(DomainError) as single:
        bivector_packed(params, spec, xs[3], BracketKind.GAUGED)
    assert str(stacked.value) == str(single.value)
    xs[3, 2] = 1.0 + 1e-9  # the band's own slack is accepted
    assert np.isfinite(bivector_packed(params, spec, Jet.seed(xs), BracketKind.GAUGED).value).all()


def solid_trivectors(params, spec, xs, kind):
    return jacobi_trivector(bivector_packed(params, spec, Jet.seed(xs), kind))


def assert_near_the_stencil(t, stencil, floor):
    assert np.max(np.abs(t - stencil)) <= floor * max(1.0, float(np.max(np.abs(t))))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("body", sorted(BODIES))
def test_solid_trivector_is_the_per_point_body(body, kind):
    params, spec = BODIES[body]
    states = np.array([s.packed() for s in make_states(8, 12)] + [SPECIAL_STATES[i] for i in (4, 5)])
    stack = solid_trivectors(params, spec, states, kind)
    assert stack.shape == (len(states), 6, 6, 6)
    for x, t in zip(states, stack):
        assert same_bits(t, solid_trivectors(params, spec, x[None], kind)[0])
        stencil = oracles.jacobi_trivector(lambda y: bivector_packed(params, spec, y, kind), x)
        assert_near_the_stencil(t, stencil, 1e-9)


def test_particle_trivector_is_the_per_point_body():
    rng = np.random.default_rng(12)
    points = list(rng.uniform(-2.0, 2.0, (40, 5))) + [np.zeros(5), np.array([0.0, -0.0, 0.0, -0.0, 0.0])]
    stack = particle_trivector(np.array(points))
    for v, t in zip(points, stack):
        assert same_bits(t, particle_trivector(v))
        assert_near_the_stencil(t, oracles.jacobi_trivector(particle_bivector, v), 1e-9)


def test_the_trivector_at_a_pole_needs_no_stencil():
    params, spec = BODIES["ellipsoid"]

    def pi(y):
        return bivector_packed(params, spec, y, BracketKind.GAUGED)

    x = np.array(SPECIAL_STATES[0])
    with pytest.raises(DomainError):
        oracles.jacobi_trivector(pi, x)  # the stencil steps past gamma3 = 1
    assert np.isfinite(solid_trivectors(params, spec, x[None], BracketKind.GAUGED)).all()


def test_the_solid_battery_is_one_jet_pass(monkeypatch):
    params, spec = BODIES["ellipsoid"]
    seen = []

    def counted(params, spec, x, kind):
        seen.append((type(x), np.shape(x.value), kind))
        return bivector_packed(params, spec, x, kind)

    monkeypatch.setattr(certify, "bivector_packed", counted)
    states = [s.packed() for s in make_states(9, 7)]
    subject = certify.Solid(params, spec, states, None, None)
    names = ("jacobi-gauged", "jacobi-ungauged-closed-form", "bracket-dynamics-consistency")
    assert all(r.status == "pass" for r in certify.run([certify.RECORDS[n] for n in names], subject))
    assert seen == [(Jet, (7, 6), BracketKind.GAUGED), (Jet, (7, 6), BracketKind.NH)]


def test_the_particle_battery_builds_one_trivector_per_sample(monkeypatch):
    calls = []

    def counted(v):
        calls.append(np.shape(v))
        return particle_trivector(v)

    monkeypatch.setattr(certify, "particle_trivector", counted)
    samples = list(np.random.default_rng(2).uniform(-2.0, 2.0, (7, 5)))
    subject = certify.Particle(samples)
    names = ("reduced-jacobi", "jacobi-negative-control", "jacobi-unreduced-closed-form")
    results = certify.run([certify.RECORDS[n] for n in names], subject)
    assert calls == [(len(samples), 5)]  # one jet pass, one trivector per sample
    reduced, control, _ = (r.measured for r in results)
    assert reduced == max(particle_jacobiator_reduced(v) for v in samples)
    assert control == max(abs(particle_jacobiator_unreduced(v)) for v in samples)
