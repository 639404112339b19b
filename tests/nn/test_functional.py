"""Finite-difference gradient checks for conv/pool/norm primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from tests.conftest import numeric_gradient


def _check_grad(build_loss, arrays, atol=1e-4):
    """Compare autograd gradients with finite differences for each array."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for array, tensor in zip(arrays, tensors):
        def scalar():
            fresh = [Tensor(a) for a in arrays]
            return float(build_loss(*fresh).item())

        numeric = numeric_gradient(scalar, array)
        np.testing.assert_allclose(tensor.grad, numeric, atol=atol, err_msg="gradient mismatch")


# --------------------------------------------------------------------- #
# conv2d
# --------------------------------------------------------------------- #
def test_conv2d_output_shape(rng):
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    w = Tensor(rng.standard_normal((5, 3, 3, 3)))
    b = Tensor(rng.standard_normal(5))
    out = F.conv2d(x, w, b, stride=1, padding=1)
    assert out.shape == (2, 5, 8, 8)


def test_conv2d_stride_two_shape(rng):
    x = Tensor(rng.standard_normal((1, 2, 8, 8)))
    w = Tensor(rng.standard_normal((4, 2, 4, 4)))
    out = F.conv2d(x, w, stride=2, padding=1)
    assert out.shape == (1, 4, 4, 4)


def test_conv2d_matches_direct_computation(rng):
    """Cross-check against a brute-force convolution on a tiny example."""
    x = rng.standard_normal((1, 1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0).numpy()
    expected = np.zeros((1, 1, 3, 3))
    for i in range(3):
        for j in range(3):
            expected[0, 0, i, j] = (x[0, 0, i : i + 3, j : j + 3] * w[0, 0]).sum()
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_conv2d_gradients(rng):
    x = rng.standard_normal((2, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    _check_grad(lambda xt, wt, bt: (F.conv2d(xt, wt, bt, stride=1, padding=1) ** 2).sum(), [x, w, b])


def test_conv2d_gradients_strided(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    w = rng.standard_normal((2, 1, 4, 4))
    _check_grad(lambda xt, wt: (F.conv2d(xt, wt, stride=2, padding=1) ** 2).sum(), [x, w])


# (size, kernel, stride, padding) with (size + 2p - k) % s != 0: the conv
# never reads the trailing rows and columns of the padded input, so a
# grad_x that crops the transposed conv symmetrically by p drops real
# gradient there.
@pytest.mark.parametrize("size,k,stride,padding", [(7, 4, 2, 1), (17, 5, 3, 2), (8, 3, 2, 0)])
def test_conv2d_gradients_strided_odd_sizes(rng, size, k, stride, padding):
    assert (size + 2 * padding - k) % stride
    x = rng.standard_normal((1, 2, size, size))
    w = rng.standard_normal((2, 2, k, k))
    _check_grad(lambda xt, wt: (F.conv2d(xt, wt, stride=stride, padding=padding) ** 2).sum(), [x, w])


def test_conv2d_channel_mismatch_raises(rng):
    x = Tensor(rng.standard_normal((1, 3, 4, 4)))
    w = Tensor(rng.standard_normal((2, 4, 3, 3)))
    with pytest.raises(ValueError):
        F.conv2d(x, w)


# --------------------------------------------------------------------- #
# conv_transpose2d
# --------------------------------------------------------------------- #
def test_conv_transpose2d_output_shape(rng):
    x = Tensor(rng.standard_normal((2, 4, 5, 5)))
    w = Tensor(rng.standard_normal((4, 2, 4, 4)))
    out = F.conv_transpose2d(x, w, stride=2, padding=1)
    assert out.shape == (2, 2, 10, 10)


def test_conv_transpose2d_is_adjoint_of_conv2d(rng):
    """<conv(x), y> == <x, conv_transpose(y)> for matching configurations."""
    x = rng.standard_normal((1, 3, 8, 8))
    y = rng.standard_normal((1, 5, 4, 4))
    w = rng.standard_normal((5, 3, 4, 4))
    conv_out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).numpy()
    # conv_transpose weight layout is (C_in=5, C_out=3, kh, kw): same array works.
    convt_out = F.conv_transpose2d(Tensor(y), Tensor(w), stride=2, padding=1).numpy()
    np.testing.assert_allclose((conv_out * y).sum(), (x * convt_out).sum(), rtol=1e-9)


def test_conv_transpose2d_gradients(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal(3)
    _check_grad(
        lambda xt, wt, bt: (F.conv_transpose2d(xt, wt, bt, stride=2, padding=1) ** 2).sum(),
        [x, w, b],
    )


def test_conv_transpose2d_channel_mismatch_raises(rng):
    x = Tensor(rng.standard_normal((1, 3, 4, 4)))
    w = Tensor(rng.standard_normal((2, 4, 3, 3)))
    with pytest.raises(ValueError):
        F.conv_transpose2d(x, w)


# --------------------------------------------------------------------- #
# pooling and upsampling
# --------------------------------------------------------------------- #
def test_avg_pool2d_value():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    out = F.avg_pool2d(x, 2).numpy()
    np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_avg_pool2d_gradients(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    _check_grad(lambda xt: (F.avg_pool2d(xt, 4) ** 2).sum(), [x])


def test_avg_pool2d_rejects_indivisible(rng):
    with pytest.raises(ValueError):
        F.avg_pool2d(Tensor(rng.standard_normal((1, 1, 5, 5))), 2)


def test_max_pool2d_value():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    out = F.max_pool2d(x, 2).numpy()
    np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def test_max_pool2d_gradients(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    _check_grad(lambda xt: (F.max_pool2d(xt, 2) ** 2).sum(), [x])


def test_upsample_nearest_roundtrip_with_avgpool(rng):
    x = rng.standard_normal((1, 1, 4, 4))
    up = F.upsample_nearest2d(Tensor(x), 2)
    down = F.avg_pool2d(up, 2)
    np.testing.assert_allclose(down.numpy(), x)


def test_upsample_nearest_gradients(rng):
    x = rng.standard_normal((1, 2, 3, 3))
    _check_grad(lambda xt: (F.upsample_nearest2d(xt, 2) ** 2).sum(), [x])


# --------------------------------------------------------------------- #
# batch normalization
# --------------------------------------------------------------------- #
def test_batch_norm_normalizes_in_training(rng):
    x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 5.0 + 2.0)
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    running_mean, running_var = np.zeros(3), np.ones(3)
    out = F.batch_norm2d(x, gamma, beta, running_mean, running_var, training=True).numpy()
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-7)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(3), atol=1e-3)


def test_batch_norm_updates_running_stats(rng):
    x = Tensor(rng.standard_normal((8, 2, 4, 4)) + 3.0)
    running_mean, running_var = np.zeros(2), np.ones(2)
    F.batch_norm2d(Tensor(x.numpy()), Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var, training=True)
    assert np.all(running_mean > 0.1)


def test_batch_norm_eval_uses_running_stats(rng):
    x = rng.standard_normal((4, 2, 3, 3))
    running_mean = np.array([1.0, -1.0])
    running_var = np.array([4.0, 0.25])
    out = F.batch_norm2d(
        Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var, training=False
    ).numpy()
    expected = (x - running_mean.reshape(1, 2, 1, 1)) / np.sqrt(running_var.reshape(1, 2, 1, 1) + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_batch_norm_gradients_training(rng):
    x = rng.standard_normal((3, 2, 3, 3))
    gamma = rng.standard_normal(2) + 1.0
    beta = rng.standard_normal(2)

    def build(xt, gt, bt):
        running_mean, running_var = np.zeros(2), np.ones(2)
        out = F.batch_norm2d(xt, gt, bt, running_mean, running_var, training=True)
        return (out * out * 0.5).sum()

    _check_grad(build, [x, gamma, beta], atol=2e-4)


def test_batch_norm_gradients_eval(rng):
    x = rng.standard_normal((2, 2, 3, 3))
    gamma = rng.standard_normal(2) + 1.0
    beta = rng.standard_normal(2)
    running_mean = rng.standard_normal(2)
    running_var = np.abs(rng.standard_normal(2)) + 0.5

    def build(xt, gt, bt):
        out = F.batch_norm2d(xt, gt, bt, running_mean.copy(), running_var.copy(), training=False)
        return (out * out * 0.5).sum()

    _check_grad(build, [x, gamma, beta], atol=2e-4)
