"""Tests of the autograd Tensor: arithmetic, reductions, shape ops, gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from tests.conftest import numeric_gradient


def test_tensor_wraps_numpy_array():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float64
    assert not t.requires_grad


def test_add_backward():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 1.0])
    np.testing.assert_allclose(b.grad, [1.0, 1.0])


def test_mul_backward():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, [3.0, 4.0])
    np.testing.assert_allclose(b.grad, [1.0, 2.0])


def test_broadcast_add_reduces_gradient():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))


def test_scalar_broadcast_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    (a * 3.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 2), 3.0))


def test_div_backward(rng):
    a_data = rng.uniform(0.5, 2.0, size=(3, 3))
    b_data = rng.uniform(0.5, 2.0, size=(3, 3))
    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    (a / b).sum().backward()
    np.testing.assert_allclose(a.grad, 1.0 / b_data)
    np.testing.assert_allclose(b.grad, -a_data / b_data**2)


def test_matmul_backward(rng):
    a_data = rng.standard_normal((4, 3))
    b_data = rng.standard_normal((3, 5))
    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    (a @ b).sum().backward()

    def loss_a():
        return float((a_data @ b_data).sum())

    np.testing.assert_allclose(a.grad, numeric_gradient(loss_a, a_data), atol=1e-5)


def test_pow_backward():
    a = Tensor([2.0, 3.0], requires_grad=True)
    (a ** 3).sum().backward()
    np.testing.assert_allclose(a.grad, [12.0, 27.0])


def test_exp_log_chain(rng):
    data = rng.uniform(0.5, 1.5, size=(4,))
    a = Tensor(data.copy(), requires_grad=True)
    (a.exp().log()).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones(4), atol=1e-9)


@pytest.mark.parametrize(
    "method, args",
    [
        ("relu", ()),
        ("leaky_relu", (0.1,)),
        ("sigmoid", ()),
        ("tanh", ()),
        ("abs", ()),
    ],
)
def test_elementwise_gradients_match_numeric(method, args, rng):
    data = rng.standard_normal((5, 5)) + 0.05  # avoid the kink at exactly 0
    t = Tensor(data.copy(), requires_grad=True)
    getattr(t, method)(*args).sum().backward()

    def loss():
        fresh = Tensor(data)
        return float(getattr(fresh, method)(*args).sum().item())

    np.testing.assert_allclose(t.grad, numeric_gradient(loss, data), atol=1e-4)


def test_mean_and_var_gradients(rng):
    data = rng.standard_normal((3, 4))
    t = Tensor(data.copy(), requires_grad=True)
    (t.var() + t.mean()).backward()

    def loss():
        fresh = Tensor(data)
        return float((fresh.var() + fresh.mean()).item())

    np.testing.assert_allclose(t.grad, numeric_gradient(loss, data), atol=1e-5)


def test_max_gradient_splits_ties():
    t = Tensor([1.0, 5.0, 5.0], requires_grad=True)
    t.max().backward()
    np.testing.assert_allclose(t.grad, [0.0, 0.5, 0.5])


def test_reshape_transpose_roundtrip_gradient(rng):
    data = rng.standard_normal((2, 3, 4))
    t = Tensor(data.copy(), requires_grad=True)
    out = t.reshape(6, 4).transpose(1, 0).reshape(2, 3, 4)
    (out * 2.0).sum().backward()
    np.testing.assert_allclose(t.grad, np.full((2, 3, 4), 2.0))


def test_getitem_gradient():
    t = Tensor(np.arange(10.0), requires_grad=True)
    t[2:5].sum().backward()
    expected = np.zeros(10)
    expected[2:5] = 1.0
    np.testing.assert_allclose(t.grad, expected)


def test_cat_gradient(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    out = Tensor.cat([a, b], axis=1)
    (out * 2.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
    np.testing.assert_allclose(b.grad, np.full((2, 5), 2.0))


def test_stack_gradient(rng):
    a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    Tensor.stack([a, b], axis=0).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((2, 2)))
    np.testing.assert_allclose(b.grad, np.ones((2, 2)))


def test_no_grad_disables_graph():
    a = Tensor([1.0], requires_grad=True)
    with no_grad():
        out = a * 2.0
    assert not out.requires_grad


def test_backward_on_non_grad_tensor_raises():
    t = Tensor([1.0])
    with pytest.raises(RuntimeError):
        t.backward()


def test_gradient_accumulates_across_uses():
    a = Tensor([2.0], requires_grad=True)
    (a * a).sum().backward()
    np.testing.assert_allclose(a.grad, [4.0])


def test_diamond_graph_gradient():
    a = Tensor([3.0], requires_grad=True)
    b = a * 2.0
    c = a * 4.0
    (b + c).sum().backward()
    np.testing.assert_allclose(a.grad, [6.0])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8),
)
def test_addition_commutes(xs, ys):
    n = min(len(xs), len(ys))
    a = Tensor(np.array(xs[:n]))
    b = Tensor(np.array(ys[:n]))
    np.testing.assert_allclose((a + b).numpy(), (b + a).numpy())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=10))
def test_sum_linearity(xs):
    data = np.array(xs)
    a = Tensor(data.copy(), requires_grad=True)
    (a.sum() * 3.0).backward()
    np.testing.assert_allclose(a.grad, np.full(data.shape, 3.0))
