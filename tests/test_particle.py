import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import (
    IntegratorConfig,
    particle_bracket,
    particle_hamiltonian,
    particle_integrate,
    particle_jacobiator_reduced,
    particle_jacobiator_unreduced,
    particle_momentum,
    particle_rhs,
)
from nonholo.brackets import ScalarField
from nonholo.particle import COLUMNS, _bracket_matrix, _frame_gradient, hamiltonian_frame_flow
from nonholo.smallalg import grad_fd
from oracles import frame_form

coords = st.floats(-2.0, 2.0, allow_nan=False)


def fd(f):
    """A plain function of the packed state as a ScalarField with central-difference gradients."""
    return ScalarField(f, lambda v: grad_fd(f, v))


def test_rhs_anchor():
    out = particle_rhs(np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    assert np.allclose(out, [0.5, 1.0, 0.5, 0.5, 0.0], atol=1e-15)


def test_momentum_and_energy():
    s = np.array([0.2, 1.0, -0.3, 2.0, 0.5])
    assert particle_momentum(s) == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-15)
    assert particle_hamiltonian(s) == pytest.approx(0.5 * (4.0 / 2.0 + 0.25), rel=1e-15)


def test_conservation_short_run():
    traj = particle_integrate(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), IntegratorConfig(1e-3, 2.0))
    assert len(traj) == 2001
    col = dict(zip(COLUMNS, traj.T))
    dj = np.max(np.abs(col["J"] - col["J"][0]))
    de = np.max(np.abs(col["E"] - col["E"][0]))
    assert dj <= 1e-10 and de <= 1e-10


def test_columns_equal_the_scalar_kernels():
    cfg = IntegratorConfig(1e-2, 0.2)
    traj = particle_integrate(np.array([0.1, -0.5, 0.2, 1.3, -0.7]), cfg)
    assert traj.shape == (21, len(COLUMNS)) and COLUMNS == ("t", "x", "y", "z", "px", "py", "J", "E")
    for k, row in enumerate(traj):
        state = row[1:6]
        assert row[0] == k * cfg.dt
        assert row[6] == particle_momentum(state)
        assert row[7] == particle_hamiltonian(state)


@settings(max_examples=30)
@given(coords, coords, coords, coords, coords)
def test_frame_flow_reproduces_rhs(x, y, z, px, py):
    s = np.array([x, y, z, px, py])
    c = hamiltonian_frame_flow(s)
    coord_rate = np.array([c[0], c[1], y * c[0], c[2], c[3]])
    assert np.max(np.abs(coord_rate - particle_rhs(s))) <= 1e-9


@settings(max_examples=50)
@given(coords, coords, coords, coords, coords)
def test_bracket_is_minus_the_inverse_frame_form(x, y, z, px, py):
    v = np.array([x, y, z, px, py])
    assert np.max(np.abs(_bracket_matrix(v) @ frame_form(v) + np.eye(4))) <= 1e-15


def test_uncoupled_flow_is_wrong():
    # Diagnostic: dropping the curvature entry w loses the px force, so the
    # flow no longer matches the constrained dynamics and J drifts.
    s = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    uncoupled = _bracket_matrix(s)
    uncoupled[2, 3] = uncoupled[3, 2] = 0.0
    c = uncoupled @ _frame_gradient(fd(particle_hamiltonian), s)
    coord_rate = np.array([c[0], c[1], 1.0 * c[0], c[2], c[3]])
    assert abs(coord_rate[3] - particle_rhs(s)[3]) > 0.1


def nested_fd_jacobiator(v, fields):
    """The cyclic sum as frame central differences (outer step 1e-4) of
    particle brackets: the Jacobiator before the Jacobi trivector, kept as an
    independent oracle."""
    bm = _bracket_matrix(v)
    total = 0.0
    for i in range(3):
        a, b, c = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]

        def inner(u, b=b, c=c):
            return particle_bracket(b, c, u)

        g = grad_fd(inner, v, 1e-4)
        total += float(_frame_gradient(a, v) @ bm @ np.array([g[0] + v[1] * g[2], g[1], g[3], g[4]]))
    return total


def test_jacobiators_match_the_nested_fd_oracle():
    rng = np.random.default_rng(19)
    x, y, px, py = (fd(lambda u, k=k: u[k]) for k in (0, 1, 3, 4))
    for _ in range(30):
        v = rng.uniform(-2.0, 2.0, 5)
        assert abs(particle_jacobiator_reduced(v) - abs(nested_fd_jacobiator(v, [y, px, py]))) <= 2e-7
        assert abs(particle_jacobiator_unreduced(v) - nested_fd_jacobiator(v, [x, px, py])) <= 2e-7


def test_reduced_jacobiator_vanishes():
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.uniform(-2.0, 2.0, 5)
        assert particle_jacobiator_reduced(v) <= 1e-7


@settings(max_examples=40)
@given(coords, coords, coords, coords, coords)
def test_unreduced_jacobiator_closed_form(x, y, z, px, py):
    # Triples keeping the unreduced x fail Jacobi by exactly y/(1+y^2) —
    # the bracket is only Poisson after quotienting the translations.
    val = particle_jacobiator_unreduced(np.array([x, y, z, px, py]))
    assert val == pytest.approx(y / (1.0 + y * y), abs=1e-8)


def test_jacobi_failure_is_order_one():
    assert particle_jacobiator_unreduced(np.array([0.0, 1.0, 0.0, 1.0, 1.0])) == pytest.approx(
        0.5, abs=1e-9
    )


def test_momentum_is_casimir():
    rng = np.random.default_rng(7)
    fields = [fd(lambda u, k=k: u[k]) for k in (1, 3, 4)]
    for _ in range(10):
        v = rng.uniform(-2.0, 2.0, 5)
        for f in fields:
            assert abs(particle_bracket(fd(particle_momentum), f, v)) <= 1e-8


def test_coefficient_solves_momentum_equation():
    # f(y) = 1/sqrt(1+y^2) against f' + f*y/(1+y^2) = 0.
    y = np.linspace(-3.0, 3.0, 601)
    f = 1.0 / np.sqrt(1.0 + y * y)
    fp = -y * (1.0 + y * y) ** -1.5
    assert np.max(np.abs(fp + f * y / (1.0 + y * y))) <= 1e-12
