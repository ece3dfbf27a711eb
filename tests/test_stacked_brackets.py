"""Stacked bracket matrices and the one-call Jacobi trivector, bit for bit.

``bivector_packed`` on an (m, 6) stack must give, matrix by matrix, the bits
of its one-state calls, and those must be the bits of the per-state numpy
body it replaced (``oracles.bivector_packed``).  ``jacobi_trivector``, which
now evaluates its whole stencil in one ``pi_fn`` call, must give the bits of
the per-point body (``oracles.jacobi_trivector``).  Arrays are compared as
``.view(np.int64)``, so signed zeros and NaN payloads count.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nonholo import (BodyParams, BracketKind, DomainError, ProfileSpec, bivector_packed, certify, eval_profile,
                     particle_jacobiator_reduced, particle_jacobiator_unreduced, qpl_values)
from nonholo.particle import _coordinate_bivector, particle_trivector
from nonholo.smallalg import jacobi_trivector
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
    stack = bivector_packed(params, spec, xs, kind)
    assert stack.shape == (len(xs), 6, 6) and stack.flags.c_contiguous
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
        bivector_packed(params, spec, xs, BracketKind.GAUGED)
    with pytest.raises(DomainError) as single:
        bivector_packed(params, spec, xs[3], BracketKind.GAUGED)
    assert str(stacked.value) == str(single.value)
    xs[3, 2] = 1.0 + 1e-9  # the band's own slack is accepted
    assert np.isfinite(bivector_packed(params, spec, xs, BracketKind.GAUGED)).all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("body", sorted(BODIES))
def test_solid_trivector_is_the_per_point_body(body, kind):
    params, spec = BODIES[body]

    def pi(y):
        return bivector_packed(params, spec, y, kind)

    states = [s.packed() for s in make_states(8, 12)] + [np.array(SPECIAL_STATES[i]) for i in (4, 5)]
    for x in states:
        assert same_bits(jacobi_trivector(pi, x), oracles.jacobi_trivector(pi, x))


def test_particle_trivector_is_the_per_point_body():
    rng = np.random.default_rng(12)
    points = list(rng.uniform(-2.0, 2.0, (40, 5))) + [np.zeros(5), np.array([0.0, -0.0, 0.0, -0.0, 0.0])]
    for v in points:
        new = particle_trivector(v)
        assert same_bits(new, oracles.jacobi_trivector(_coordinate_bivector, v))
        stack = _coordinate_bivector(np.array([v, -v]))
        assert same_bits(stack[0], _coordinate_bivector(v)) and same_bits(stack[1], _coordinate_bivector(-v))


def test_a_stencil_leaving_the_band_raises_as_before():
    params, spec = BODIES["ellipsoid"]

    def pi(y):
        return bivector_packed(params, spec, y, BracketKind.GAUGED)

    x = np.array(SPECIAL_STATES[0])  # the stencil steps past gamma3 = 1
    messages = []
    for trivector in (jacobi_trivector, oracles.jacobi_trivector):
        with pytest.raises(DomainError) as info:
            trivector(pi, x)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_the_stencil_is_one_call():
    params, spec = BODIES["ellipsoid"]
    shapes = []

    def pi(y):
        shapes.append(y.shape)
        return bivector_packed(params, spec, y, BracketKind.GAUGED)

    for x in [s.packed() for s in make_states(9, 3)]:
        jacobi_trivector(pi, x)
    assert shapes == [(25, 6)] * 3

    def particle_pi(y):
        shapes.append(y.shape)
        return _coordinate_bivector(y)

    shapes.clear()
    jacobi_trivector(particle_pi, np.array([0.3, -0.5, 0.2, 1.0, -0.7]))
    assert shapes == [(21, 5)]


def test_the_particle_battery_builds_one_trivector_per_sample(monkeypatch):
    calls = []

    def counted(v):
        calls.append(1)
        return particle_trivector(v)

    monkeypatch.setattr(certify, "particle_trivector", counted)
    samples = list(np.random.default_rng(2).uniform(-2.0, 2.0, (7, 5)))
    subject = certify.Particle(samples)
    names = ("reduced-jacobi", "jacobi-negative-control", "jacobi-unreduced-closed-form")
    results = certify.run([certify.RECORDS[n] for n in names], subject)
    assert len(calls) == len(samples)
    reduced, control, _ = (r.measured for r in results)
    assert reduced == max(particle_jacobiator_reduced(v) for v in samples)
    assert control == max(abs(particle_jacobiator_unreduced(v)) for v in samples)
