import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nonholo import cross, dot, grad_fd, rk4_step, vec3

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
