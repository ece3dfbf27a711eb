"""Forward-mode jets through the package's own bodies.

``smallalg.Jet`` carries a value and its gradient through the elementwise
bodies of the profile (``profile_terms``), the gauge fields
(``gauge_columns``), Omega (``omega_floats``), the energy
(``energy_floats``) and the particle's coupling (``_coupling``).  Its value
part must be the bits of those bodies on Python floats, and its gradient
part must be their derivative: against sympy's derivatives of the same
bodies run on symbols, and against the central differences of ``grad_fd``
at their floor.  At the poles, where no stencil can be centred, the jets
must give a finite trivector and energy gradient, and a vanishing gauged
Jacobiator.  The gradients of the invariants and of j1, j2 are jet passes
too, and must be the hand-written gradients they replaced.
"""
import itertools
import math

import numpy as np
import pytest
import sympy

from nonholo import BodyParams, BracketKind, ProfileSpec, bivector_packed
from nonholo.brackets import J1_COMPONENT, J2_COMPONENT, TAUS, energy_at
from nonholo.geomforms import gauge_columns
from nonholo.particle import HAMILTONIAN, MOMENTUM, _coupling
from nonholo.phase import energy_floats, omega_floats
from nonholo.profile import profile_terms
from nonholo.smallalg import Jet, grad_fd, jacobi_trivector, jet_gradient
from oracles import same_bits, state_gradient

BODIES = {
    "routh": (BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.routh(1.0, 0.1)),
    "ellipsoid": (BodyParams(1.0, 2.0, 3.0, 9.8), ProfileSpec.ellipsoid(2.0, 1.0)),
    "balanced": (BodyParams(1.3, 0.7, 2.1), ProfileSpec.ellipsoid(1.5, 1.5)),
}

POLES = [[0.0, 0.0, 1.0, 0.7, -1.2, 2.0], [0.0, 0.0, -1.0, -0.4, 0.9, -1.5],
         [-0.0, 0.0, 1.0, -0.0, 0.0, -0.0], [0.0, -0.0, -1.0, 1.5, -0.0, 0.3]]


def states(seed: int, n: int) -> np.ndarray:
    """n random packed states (any |gamma3| up to 1), then the four poles."""
    rng = np.random.default_rng(seed)
    gamma = rng.normal(size=(n, 3))
    gamma /= np.linalg.norm(gamma, axis=1)[:, None]
    return np.vstack([np.hstack([gamma, rng.uniform(-3.0, 3.0, (n, 3))]), POLES])


def solid_bodies(params, spec, cols, sqrt):
    """Every solid body on the six state columns: the profile terms, the gauge
    columns, Omega and the energy."""
    terms = profile_terms(spec, cols[2], sqrt)
    rho, _, L, rho_p, L_p = terms
    omega = omega_floats(params, rho, L, *cols)
    return (*terms, *gauge_columns(params, rho, L, rho_p, L_p, *cols), *omega,
            energy_floats(params, rho, L, *cols, *omega))


def value(e, i):
    return e.value[i] if isinstance(e, Jet) else e


@pytest.mark.parametrize("body", sorted(BODIES))
def test_value_part_is_the_float_bodies(body):
    params, spec = BODIES[body]
    xs = states(1, 60)
    x = Jet.seed(xs)
    jets = solid_bodies(params, spec, [x[:, k] for k in range(6)], Jet.sqrt)
    for i, state in enumerate(xs):
        floats = solid_bodies(params, spec, state.tolist(), math.sqrt)
        assert same_bits([value(e, i) for e in jets], floats), i


def test_value_part_is_the_float_coupling():
    vs = np.random.default_rng(2).uniform(-3.0, 3.0, (60, 5))
    w = _coupling(Jet.seed(vs))
    for i, v in enumerate(vs):
        assert same_bits(w.value[i], _coupling(v))


def sympy_gradient(expr, symbols, point) -> np.ndarray:
    """sympy's derivatives of ``expr`` along ``symbols`` at ``point``, to 30 digits."""
    at = {s: sympy.Float(v, 30) for s, v in zip(symbols, point)}
    return np.array([float(sympy.diff(expr, s).xreplace(at)) for s in symbols])


def assert_close(got, exact, rel):
    assert np.max(np.abs(got - exact)) <= rel * max(1.0, float(np.max(np.abs(exact))))


def assert_sympy_gradients(body, point, rel):
    """The gradient part of ``body`` (a function of its float inputs that
    returns a tuple) at ``point`` is sympy's derivative of the same body run
    on symbols."""
    symbols = sympy.symbols(f"u:{len(point)}")
    u = Jet.seed(np.array([point]))
    jets = body(*(u[:, k] for k in range(len(point))))
    for e, expr in zip(jets, body(*symbols)):
        got = e.grad[:, 0] if isinstance(e, Jet) else np.zeros(len(point))
        assert_close(got, sympy_gradient(sympy.sympify(expr), symbols, point), rel)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_gradient_part_of_the_profile_is_the_sympy_derivative(body):
    _, spec = BODIES[body]
    for g3 in (0.3, -0.8, 1.0, -1.0):
        assert_sympy_gradients(lambda g: profile_terms(spec, g, Jet.sqrt if isinstance(g, Jet) else sympy.sqrt),
                               [g3], 1e-14)


def test_gradient_part_is_the_sympy_derivative():
    # Omega, the energy and the gauge fields take the profile terms as inputs,
    # so one body and one state exercise every operation they run.
    params, spec = BODIES["ellipsoid"]
    state = [0.6, 0.0, 0.8, 1.0, -2.0, 0.5]
    rho, _, L, rho_p, L_p = profile_terms(spec, state[2])
    assert_sympy_gradients(lambda *a: omega_floats(params, *a), [rho, L, *state], 1e-14)
    assert_sympy_gradients(lambda *a: (energy_floats(params, *a),), [rho, L, *state, 0.3, -0.7, 1.1], 1e-14)
    # c3, Q and P; L_vec and K_vec are their products with the state and Omega
    assert_sympy_gradients(lambda *a: gauge_columns(params, *a)[:3], [rho, L, rho_p, L_p, *state], 1e-13)


def test_gradient_part_of_the_particle_is_the_sympy_derivative():
    symbols = sympy.symbols("x y z px py")
    w = _coupling(np.array(symbols, dtype=object))
    vs = np.random.default_rng(4).uniform(-3.0, 3.0, (5, 5))
    jets = _coupling(Jet.seed(vs))
    for i, v in enumerate(vs):
        assert_close(jets.grad[:, i], sympy_gradient(w, symbols, v.tolist()), 1e-14)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_gradient_part_agrees_with_central_differences(body):
    params, spec = BODIES[body]
    h = lambda x: energy_at(params, spec, x)  # noqa: E731
    for state in states(5, 20)[:-len(POLES)]:  # a stencil cannot be centred at a pole
        if abs(state[2]) < 0.99:
            assert_close(jet_gradient(h, state), grad_fd(h, state), 1e-9)
    for v in np.random.default_rng(6).uniform(-2.0, 2.0, (20, 5)):
        for field in (HAMILTONIAN, MOMENTUM):
            assert_close(field.grad(v), grad_fd(field.fn, v), 1e-9)


@pytest.mark.parametrize("body", ["routh", "ellipsoid"])
def test_trivector_and_energy_gradient_at_the_poles(body):
    params, spec = BODIES[body]
    xs = np.array(POLES)
    x = Jet.seed(xs)
    assert np.isfinite(energy_at(params, spec, x).grad).all()
    for kind in BracketKind:
        assert np.isfinite(jacobi_trivector(bivector_packed(params, spec, x, kind))).all()
    gauged = jacobi_trivector(bivector_packed(params, spec, x, BracketKind.GAUGED))
    for state, t in zip(xs, gauged):
        d = np.array([tau.grad(state) for tau in TAUS])
        jac = np.einsum("iab,pi,qa,rb->pqr", t, d, d, d)
        assert max(abs(jac[a, b, c]) for a, b, c in itertools.combinations(range(5), 3)) <= 1e-13


def test_field_gradients_are_the_hand_written_gradients():
    # as values, so a zero may carry either sign; exact zeros and -0.0 in the state
    xs = np.vstack([states(7, 20), [[0.0, -0.0, 0.5, -0.0, 0.0, 1.0], [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
                                    [0.6, 0.0, -0.8, 0.0, -2.0, -0.0]]])
    for field in (*TAUS, J1_COMPONENT, J2_COMPONENT):
        rows = field.grad(xs)
        assert rows.flags.c_contiguous and rows.shape == xs.shape, field.name
        assert np.array_equal(rows, state_gradient(field.name, xs)), field.name
        for x in xs:
            assert np.array_equal(field.grad(x), state_gradient(field.name, x)), (field.name, x)
