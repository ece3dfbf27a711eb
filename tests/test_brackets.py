"""Bracket machinery: the 6x6 bivectors, the Jacobiator in both gauges,
and the explicit 5x5 table on the invariants."""
import itertools

import numpy as np
import pytest

from nonholo import (
    BracketKind,
    bivector_packed,
    bracket,
    casimir_residuals,
    eval_profile,
    hamiltonian_field,
    invariants,
    jacobiator,
    profile_scalars,
    pushforward_residual,
    reduced_bivector_tau,
    solution_for,
)
from nonholo.brackets import J1_COMPONENT, J2_COMPONENT, TAUS, ScalarField, s1_generator
from nonholo.errors import ConsistencyError, DomainError
from nonholo.phase import energy, momentum_components, relation_residual
from nonholo.smallalg import grad_fd

from conftest import make_states
from oracles import same_bits

TAU1 = lambda x: x[2]  # noqa: E731
TAU2 = lambda x: x[0] * x[4] - x[1] * x[3]  # noqa: E731
TAU3 = lambda x: x[0] * x[3] + x[1] * x[4]  # noqa: E731
TAU4 = lambda x: x[5]  # noqa: E731
TAU5 = lambda x: x[3] ** 2 + x[4] ** 2  # noqa: E731
J2F = lambda x: x[0] * x[3] + x[1] * x[4] + x[2] * x[5]  # noqa: E731


def fd(f):
    """A plain function of the packed state as a ScalarField with central-difference gradients."""
    return ScalarField(f, lambda x: grad_fd(f, x))


class TestBivector:
    def test_antisymmetric_by_construction(self, worked_params, worked_spec, worked_state):
        for kind in BracketKind:
            pi = bivector_packed(worked_params, worked_spec, worked_state.packed(), kind)
            assert np.max(np.abs(pi + pi.T)) == 0.0

    def test_block_structure(self, worked_params, worked_spec, worked_state):
        pi = bivector_packed(worked_params, worked_spec, worked_state.packed(), BracketKind.GAUGED)
        assert np.max(np.abs(pi[:3, :3])) == 0.0  # {gamma, gamma} = 0
        g = worked_state.gamma
        hat = np.array([[0, -g[2], g[1]], [g[2], 0, -g[0]], [-g[1], g[0], 0]])
        assert np.max(np.abs(pi[:3, 3:] - hat)) <= 1e-15  # {gamma_a, M_i} = (gamma x e_i)_a

    def test_kinds_differ_only_in_MM_block(self, worked_params, worked_state):
        from nonholo import ProfileSpec

        spec = ProfileSpec.routh(1.0, 0.4)
        x = worked_state.packed()
        a = bivector_packed(worked_params, spec, x, BracketKind.GAUGED)
        b = bivector_packed(worked_params, spec, x, BracketKind.NH)
        assert np.max(np.abs(a[:3, :] - b[:3, :])) == 0.0
        assert np.max(np.abs(a[3:, 3:] - b[3:, 3:])) > 1e-3


class TestBracket:
    def test_tau1_tau2_anchor(self, worked_params, worked_spec, worked_state):
        # {tau1, tau2} = 1 - tau1^2 = 0.36, identical in both gauges.
        for kind in BracketKind:
            val = bracket(worked_params, worked_spec, fd(TAU1), fd(TAU2), worked_state, kind)
            assert val == pytest.approx(0.36, abs=1e-9)

    def test_leibniz(self, worked_params, worked_spec, worked_state):
        def prod(x):
            return TAU2(x) * TAU3(x)

        lhs = bracket(worked_params, worked_spec, fd(prod), fd(TAU4), worked_state, BracketKind.GAUGED)
        t2 = TAU2(worked_state.packed())
        t3 = TAU3(worked_state.packed())
        rhs = t2 * bracket(
            worked_params, worked_spec, fd(TAU3), fd(TAU4), worked_state, BracketKind.GAUGED
        ) + t3 * bracket(worked_params, worked_spec, fd(TAU2), fd(TAU4), worked_state, BracketKind.GAUGED)
        assert lhs == pytest.approx(rhs, abs=1e-7)


def nested_fd_jacobiator(params, spec, f, g, h, state, kind):
    """The cyclic sum as central differences (outer step 1e-4) of brackets
    whose gradients are central differences themselves: the Jacobiator
    before the Jacobi trivector, kept as an independent oracle.  Its own
    truncation error is about 5e-8 on O(1) fields."""
    x = state.packed()
    fields = [f, g, h]
    total = 0.0
    for i in range(3):
        a, b, c = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]

        def inner(y, b=b, c=c):
            return bracket(params, spec, b, c, y, kind)

        pi = bivector_packed(params, spec, x, kind)
        total += float(a.grad(x) @ pi @ grad_fd(inner, x, 1e-4))
    return total


class TestJacobiator:
    @pytest.mark.parametrize("kind", list(BracketKind))
    @pytest.mark.parametrize("preset", ["routh", "ellipsoid"])
    def test_matches_the_nested_fd_oracle(self, preset, kind, routh_preset, ellipsoid_preset):
        params, spec = routh_preset if preset == "routh" else ellipsoid_preset
        triples = [*itertools.combinations(TAUS, 3), (TAUS[0], J2_COMPONENT, TAUS[3])]
        for state in make_states(31, 4):
            for f, g, h in triples:
                new = jacobiator(params, spec, f, g, h, state, kind)
                assert abs(new - nested_fd_jacobiator(params, spec, f, g, h, state, kind)) <= 2e-7
            # Central-difference gradients are exact on these quadratics up
            # to rounding.  (The oracle, which differences those gradients
            # again, is off by about 1e-6 here.)
            by_fd = jacobiator(params, spec, fd(TAU2), fd(TAU5), fd(J2F), state, kind)
            assert abs(by_fd - jacobiator(params, spec, TAUS[1], TAUS[4], J2_COMPONENT, state, kind)) <= 1e-10

    def test_ungauged_anchor(self, worked_params, worked_spec, worked_state):
        val = jacobiator(
            worked_params, worked_spec, fd(TAU1), fd(J2F), fd(TAU4), worked_state, BracketKind.NH
        )
        assert val == pytest.approx(-0.12, rel=1e-5)

    def test_gauged_vanishes_at_worked_state(self, worked_params, worked_spec, worked_state):
        val = jacobiator(
            worked_params, worked_spec, fd(TAU1), fd(J2F), fd(TAU4), worked_state, BracketKind.GAUGED
        )
        assert abs(val) <= 1e-7

    @pytest.mark.parametrize("preset", ["routh", "ellipsoid"])
    def test_ungauged_closed_form(self, preset, routh_preset, ellipsoid_preset):
        params, spec = routh_preset if preset == "routh" else ellipsoid_preset
        for state in make_states(11, 5):
            ev = eval_profile(spec, state.gamma[2])
            sc = profile_scalars(params, ev, state.gamma)
            t1 = state.gamma[2]
            expected = -params.m * ev.rho * sc.gs * (1.0 - t1 * t1) / sc.A1
            val = jacobiator(
                params, spec, fd(TAU1), fd(J2F), fd(TAU4), state, BracketKind.NH
            )
            assert val == pytest.approx(expected, rel=1e-4, abs=1e-8)


class TestReducedTable:
    def test_pushforward_residual(self, routh_preset, ellipsoid_preset):
        for params, spec in (routh_preset, ellipsoid_preset):
            for state in make_states(23, 8):
                assert pushforward_residual(params, spec, state) <= 1e-8

    def test_rejects_relation_violation(self, routh_preset):
        params, spec = routh_preset
        with pytest.raises(ConsistencyError):
            reduced_bivector_tau(params, spec, np.array([0.5, 1.0, 1.0, 1.0, 0.1]))

    def test_rejects_singular_stratum(self, routh_preset, worked_state):
        params, spec = routh_preset
        tau = np.array([1.0, 0.0, 0.0, 2.0, 0.0])
        assert relation_residual(*tau[:3], tau[4]) == 0.0
        with pytest.raises(DomainError):
            reduced_bivector_tau(params, spec, tau)

    def test_table_is_a_table(self, routh_preset, worked_state):
        params, spec = routh_preset
        tab = reduced_bivector_tau(params, spec, invariants(worked_state))
        assert tab.shape == (5, 5)
        assert np.max(np.abs(tab + tab.T)) == 0.0
        assert tab[0, 2] == 0.0 and tab[0, 3] == 0.0 and tab[2, 3] == 0.0


def test_s1_generator(worked_state):
    gen = s1_generator(worked_state.packed())
    assert np.allclose(gen, [0.0, 0.6, 0.0, -2.0, 1.0, 0.0])


def test_hamiltonian_field(worked_params, worked_spec, worked_state):
    h = hamiltonian_field(worked_params, worked_spec)
    x = worked_state.packed()
    assert h.fn(x) == pytest.approx(energy(worked_params, eval_profile(worked_spec, x[2]), x), rel=1e-15)
    by_fd = grad_fd(h.fn, x)
    assert np.max(np.abs(h.grad(x) - by_fd)) <= 1e-8


def test_casimir_residuals(routh_preset, ellipsoid_preset, ellipsoid_momenta):
    params, spec = routh_preset
    mom = solution_for(params, spec)
    for state in make_states(3, 6):
        res = casimir_residuals(params, spec, state, mom)
        assert max(res.max_j1, res.max_j2, res.involution) <= 1e-8
        assert max(res.vertical1, res.vertical2) <= 1e-8
    params, spec = ellipsoid_preset
    for state in make_states(4, 4):
        res = casimir_residuals(params, spec, state, ellipsoid_momenta)
        assert max(res.max_j1, res.max_j2, res.involution) <= 1e-8
        assert max(res.vertical1, res.vertical2) <= 1e-8


def test_invariant_and_momentum_fields_are_the_phase_kernels():
    # tau5 = M1*M1 + M2*M2 as phase.invariants squares, not pow: the two
    # differ in the last bit for about 0.1% of uniform states.
    xs = np.random.default_rng(23).uniform(-3.0, 3.0, (20_000, 6))
    for k, tau in enumerate(TAUS):
        assert same_bits(tau.fn(xs), invariants(xs)[:, k]), tau.name
    for k, j in enumerate((J1_COMPONENT, J2_COMPONENT)):
        assert same_bits(j.fn(xs), momentum_components(xs)[:, k]), j.name
