import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nonholo import cross, dot, grad_fd, rk4_step, vec3
from nonholo.smallalg import hat, jacobi_trivector, nan_max

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
triples = st.tuples(finite, finite, finite)


def test_cross_anchor():
    assert np.allclose(cross(vec3(1, 0, 0), vec3(0, 1, 0)), [0, 0, 1])
    assert np.allclose(cross(vec3(0, 0, 1), vec3(1, 0, 0)), [0, 1, 0])


@given(triples, triples)
def test_cross_is_orthogonal_to_both(a, b):
    c = cross(np.array(a), np.array(b))
    assert abs(dot(c, np.array(a))) <= 1e-9 * (1 + dot(c, c))
    assert abs(dot(c, np.array(b))) <= 1e-9 * (1 + dot(c, c))


@given(triples, triples, triples)
def test_jacobi_identity_of_cross(a, b, c):
    a, b, c = np.array(a), np.array(b), np.array(c)
    total = cross(a, cross(b, c)) + cross(b, cross(c, a)) + cross(c, cross(a, b))
    assert np.max(np.abs(total)) <= 1e-8


def test_rk4_is_fourth_order():
    # y' = y, exact e; halving the step must cut the error by ~2^4.
    def f(t, y):
        return y

    errs = []
    for n in (16, 32):
        y = np.array([1.0])
        h = 1.0 / n
        for k in range(n):
            y = rk4_step(f, k * h, y, h)
        errs.append(abs(y[0] - np.e))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_grad_fd_on_a_polynomial():
    def f(x):
        return x[0] ** 2 * x[1] + 3.0 * x[2]

    g = grad_fd(f, np.array([1.0, 2.0, -1.0]))
    assert np.max(np.abs(g - np.array([4.0, 1.0, 3.0]))) <= 1e-8


def test_jacobi_trivector_of_the_lie_poisson_bracket_vanishes():
    # pi(x) = hat(x) on so(3)* is Poisson ({x_a, x_b} = -eps_abk x_k).
    rng = np.random.default_rng(5)
    for scale in (1.0, 3.0, 10.0):
        for _ in range(20):
            t = jacobi_trivector(hat, rng.uniform(-scale, scale, 3))
            assert t.shape == (3, 3, 3)
            assert np.max(np.abs(t)) <= 1e-14


def test_jacobi_trivector_of_a_non_poisson_bivector():
    # {x1, x2} = 1, {x2, x3} = x2, {x1, x3} = 0: the cyclic sum on (x1, x2, x3)
    # is {x1, {x2, x3}} = {x1, x2} = 1, and T is totally antisymmetric.
    def pi(x):
        return np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, x[1]], [0.0, -x[1], 0.0]])

    t = jacobi_trivector(pi, np.array([0.3, -2.0, 5.0]))
    assert abs(t[0, 1, 2] - 1.0) <= 1e-12
    assert np.max(np.abs(t + t.transpose(1, 0, 2))) <= 1e-15
    assert np.max(np.abs(t - t.transpose(1, 2, 0))) <= 1e-15


def test_nan_max_propagates_nan_in_any_position():
    assert max(0.0, 1e-20, math.nan) == 1e-20  # what a plain max reports
    assert math.isnan(nan_max([1e-20, math.nan]))
    assert math.isnan(nan_max([math.nan, 1e-20]))
    assert math.isnan(nan_max(np.array([[1e-20, 2.0], [math.nan, 3.0]])))


@given(st.lists(finite))
def test_nan_max_picks_what_max_picks_without_nan(values):
    assert nan_max(values) == nan_max(np.array(values)) == max([0.0, *values])
