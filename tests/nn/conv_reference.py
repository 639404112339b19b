"""The window-view ``tensordot`` / ``col2im`` conv passes, kept as in-test
references for the block-kernel convs of :mod:`repro.nn.functional`.

These were the autograd ``conv2d`` and ``conv_transpose2d`` before every
conv pass moved onto the kernel-row block kernel.  ``im2col`` and ``col2im``
are pinned bit for bit against the seed slice loops in
``tests/pipeline/test_parallel.py``; the conv passes are what the
block-kernel passes are checked against, within 1e-12.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.nn import Tensor


def _window_view(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Zero-copy sliding-window view ``(N, C, H_out, W_out, kh, kw)`` of ``x``."""
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Image patches ``(N, C*kh*kw, H_out*W_out)`` of ``x`` ``(N, C, H, W)``."""
    windows = _window_view(x, kh, kw, stride, padding)
    n, c, h_out, w_out = windows.shape[:4]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, h_out * w_out)


def col2im(cols, image_shape, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add patches back into an image);
    disjoint windows (``stride >= kh, kw``) scatter through one view."""
    n, c, h, w = image_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = (h_pad - kh) // stride + 1
    w_out = (w_pad - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    image = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    if stride >= kh and stride >= kw:
        sn, sc, sh, sw = image.strides
        scatter = as_strided(
            image,
            shape=(n, c, h_out, kh, w_out, kw),
            strides=(sn, sc, sh * stride, sh, sw * stride, sw),
        )
        scatter[:] = cols.transpose(0, 1, 4, 2, 5, 3)
    else:
        for i in range(kh):
            i_end = i + stride * h_out
            for j in range(kw):
                j_end = j + stride * w_out
                image[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return image[:, :, padding:-padding, padding:-padding]
    return image


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """One ``tensordot`` over the window view per sample; ``grad_x`` through
    :func:`col2im`."""
    n = x.shape[0]
    c_out, _, kh, kw = weight.shape
    windows = _window_view(x.data, kh, kw, stride, padding)
    out = np.empty((n, c_out, *windows.shape[2:4]), dtype=np.result_type(windows, weight.data))
    for i in range(n):
        out[i] = np.tensordot(windows[i], weight.data, axes=([0, 3, 4], [1, 2, 3])).transpose(2, 0, 1)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight.accumulate_grad(np.tensordot(grad, windows, axes=([0, 2, 3], [0, 2, 3])))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.matmul(weight.data.reshape(c_out, -1).T, grad.reshape(n, c_out, -1))
            x.accumulate_grad(col2im(grad_cols, x.shape, kh, kw, stride, padding))

    return Tensor.from_op(out, [x, weight] + ([bias] if bias is not None else []), backward)


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """One GEMM into patch columns scattered through :func:`col2im`; the
    backward reads the output gradient through :func:`im2col`."""
    n, c_in, h, w = x.shape
    _, c_out, kh, kw = weight.shape
    h_out = (h - 1) * stride - 2 * padding + kh
    w_out = (w - 1) * stride - 2 * padding + kw
    w_mat = weight.data.reshape(c_in, -1)
    x_mat = x.data.reshape(n, c_in, h * w)
    out = col2im(np.matmul(w_mat.T, x_mat), (n, c_out, h_out, w_out), kh, kw, stride, padding)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    def backward(grad: np.ndarray) -> None:
        grad_cols = im2col(grad, kh, kw, stride, padding)
        if x.requires_grad:
            x.accumulate_grad(np.matmul(w_mat, grad_cols).reshape(x.shape))
        if weight.requires_grad:
            grad_w = np.tensordot(x_mat, grad_cols, axes=([0, 2], [0, 2]))
            weight.accumulate_grad(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))

    return Tensor.from_op(out, [x, weight] + ([bias] if bias is not None else []), backward)
