import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import rk4_step
from nonholo.smallalg import Jet, _rk4_step5, _rk4_step6, grad_fd, jacobi_trivector, matrix, nan_max, pow2
from oracles import cross, dot, float_kinds, rk4_step_n, same_bits

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
triples = st.tuples(finite, finite, finite)


def test_cross_anchor():
    assert np.allclose(cross(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])), [0, 0, 1])
    assert np.allclose(cross(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])), [0, 1, 0])


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
            y = rk4_step_n(f, k * h, y, h)
        errs.append(abs(y[0] - np.e))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_rk4_step_refuses_a_state_it_has_no_step_for(n):
    with pytest.raises(ValueError, match=f"not {n}$"):
        rk4_step(lambda t, y: y, 0.0, [1.0] * n, 0.1)


def stage_field(stages):
    """A field that returns ``stages`` in turn and records each (t, *y) it is called at."""
    calls, values = [], iter(stages)

    def f(t, y):
        calls.append([t, *y])
        return next(values)

    return f, calls


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_unrolled_steps_are_the_generic_step_bit_for_bit(data):
    # rk4_step takes the written-out step of a 5- or 6-element state
    n, fl = data.draw(st.sampled_from([5, 6])), data.draw(float_kinds)
    vec = st.lists(fl, min_size=n, max_size=n)
    y, t, h = data.draw(vec), data.draw(fl), data.draw(fl)
    stages = [tuple(data.draw(vec)) for _ in range(4)]
    k1 = stages.pop(0) if data.draw(st.booleans()) else None
    f_ref, ref_calls = stage_field(stages)
    ref = rk4_step_n(f_ref, t, y, h, k1)
    for step in ({5: _rk4_step5, 6: _rk4_step6}[n], rk4_step):
        f, calls = stage_field(stages)
        new = step(f, t, y, h, k1)
        assert isinstance(new, list) and same_bits(new, ref)
        assert same_bits(calls, ref_calls)  # the same stage times and arguments


def test_pow2_is_inf_past_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pow2(1e200) == math.inf
        assert same_bits(pow2(np.array([1.0, 1e200, -3.0])), [1.0, math.inf, 9.0])
        assert same_bits(pow2(np.array([0.1, -3.0])), [0.1**2, 9.0])


def test_grad_fd_on_a_polynomial():
    def f(x):
        return x[0] ** 2 * x[1] + 3.0 * x[2]

    g = grad_fd(f, np.array([1.0, 2.0, -1.0]))
    assert np.max(np.abs(g - np.array([4.0, 1.0, 3.0]))) <= 1e-8


def test_jacobi_trivector_of_the_lie_poisson_bracket_vanishes():
    # pi(x) = hat(x) on so(3)* is Poisson ({x_a, x_b} = -eps_abk x_k).
    def hats(x):
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        return matrix([[0.0, -x3, x2], [x3, 0.0, -x1], [-x2, x1, 0.0]])

    rng = np.random.default_rng(5)
    for scale in (1.0, 3.0, 10.0):
        t = jacobi_trivector(hats(Jet.seed(rng.uniform(-scale, scale, (20, 3)))))
        assert t.shape == (20, 3, 3, 3)
        assert np.max(np.abs(t)) <= 1e-14


def test_jacobi_trivector_of_a_non_poisson_bivector():
    # {x1, x2} = 1, {x2, x3} = x2, {x1, x3} = 0: the cyclic sum on (x1, x2, x3)
    # is {x1, {x2, x3}} = {x1, x2} = 1, and T is totally antisymmetric.
    def pi(x):
        return matrix([[0.0, 1.0, 0.0], [-1.0, 0.0, x[:, 1]], [0.0, -x[:, 1], 0.0]])

    t = jacobi_trivector(pi(Jet.seed([[0.3, -2.0, 5.0]])))[0]
    assert abs(t[0, 1, 2] - 1.0) <= 1e-12
    assert np.max(np.abs(t + t.transpose(1, 0, 2))) <= 1e-15
    assert np.max(np.abs(t - t.transpose(1, 2, 0))) <= 1e-15


def hat_rows(x1, x2, x3):
    """The entries of hat(x) with a constant 2.0 on the diagonal."""
    return [[2.0, -x3, x2], [x3, 2.0, -x1], [-x2, x1, 2.0]]


def test_matrix_of_a_point_a_stack_and_a_jet():
    xs = np.random.default_rng(3).uniform(-2.0, 2.0, (7, 3))
    one = matrix(hat_rows(*xs[0].tolist()))
    assert type(one) is np.ndarray and one.shape == (3, 3)
    assert same_bits(one, np.array(hat_rows(*xs[0].tolist())))
    stack = matrix(hat_rows(*xs.T))
    assert stack.shape == (7, 3, 3) and stack.flags.c_contiguous
    for x, m in zip(xs, stack):
        assert same_bits(m, matrix(hat_rows(*x.tolist())))
    x = Jet.seed(xs)
    jet = matrix(hat_rows(x[:, 0], x[:, 1], x[:, 2]))
    assert same_bits(jet.value, stack) and jet.value.flags.c_contiguous
    assert jet.grad.shape == (3, 7, 3, 3) and jet.grad.flags.c_contiguous
    assert not jet.grad[:, :, [0, 1, 2], [0, 1, 2]].any()  # the constant diagonal
    assert same_bits(jet.grad[2, :, 0, 1], np.full(7, -1.0)) and not jet.grad[:2, :, 0, 1].any()  # d(-x3)


def test_nan_max_propagates_nan_in_any_position():
    assert max(0.0, 1e-20, math.nan) == 1e-20  # what a plain max reports
    assert math.isnan(nan_max(np.array([1e-20, math.nan])))
    assert math.isnan(nan_max(np.array([math.nan, 1e-20])))
    assert math.isnan(nan_max(np.array([[1e-20, 2.0], [math.nan, 3.0]])))


@given(st.lists(finite))
def test_nan_max_picks_what_max_picks_without_nan(values):
    assert nan_max(np.array(values)) == max([0.0, *values])
