"""Fused differentiable operations on 4-D image tensors.

All operations here work on tensors shaped ``(N, C, H, W)`` (batch, channel,
height, width) — the layout used throughout the paper's architecture tables —
and register analytic backward passes with the autograd graph defined in
:mod:`repro.nn.tensor`.

Convolutions reduce to dense matrix multiplications, which is the fastest
strategy available with a pure NumPy backend for the small kernel sizes
(3x3 / 4x4) used by DOINN, UNet and DAMO-DLS.  The hot path is zero-copy:
patches are expressed as a :func:`numpy.lib.stride_tricks.sliding_window_view`
over the (padded) input — a view, not a materialized ``(N, C*kh*kw, L)``
patch matrix — and the contraction against the weights runs as one GEMM via
``np.tensordot``, whose internal packing of the view is the only copy made.
The explicit ``im2col``/``col2im`` pair is kept for the adjoint passes and
for callers that need the patch matrix itself.  The fused eval kernel
:func:`conv_bn_act` packs stride-1 inputs one cache-resident block of
:data:`CONV_BLOCK` output positions at a time instead, and only ``C_in*kw``
rows per block: the ``kh`` kernel rows read the same pack one padded row
apart, as ``kh`` accumulating GEMMs (the partial-im2col form of Anderson
et al., "Low-memory GEMM-based convolution algorithms for deep neural
networks", arXiv:1709.03395).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensor import Tensor

__all__ = [
    "conv2d",
    "conv_bn_act",
    "conv_transpose2d",
    "conv_transpose_bn_act",
    "avg_pool2d",
    "max_pool2d",
    "batch_norm2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "upsample_nearest2d",
]


# ---------------------------------------------------------------------- #
# im2col / col2im
# ---------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1




def _window_view(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Zero-copy sliding-window view ``(N, C, H_out, W_out, kh, kw)`` of ``x``.

    For ``stride == 1`` this is a pure view of the (padded) input; larger
    strides slice the view, which stays copy-free.  Every conv forward/adjoint
    consumes this view directly, so no ``(N, C*kh*kw, L)`` patch matrix is ever
    materialized on the hot path.
    """
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Built on the sliding-window view: the single copy happens in the final
    ``reshape`` (the transposed view is not contiguous); the seed slice-loop
    implementation is pinned against this one in ``tests/pipeline``.

    Parameters
    ----------
    x:
        Array of shape ``(N, C, H, W)``.

    Returns
    -------
    Array of shape ``(N, C * kh * kw, H_out * W_out)``.
    """
    windows = _window_view(x, kh, kw, stride, padding)
    n, c, h_out, w_out = windows.shape[:4]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, h_out * w_out)


def col2im(
    cols: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add patches back into an image).

    When ``stride >= kh`` and ``stride >= kw`` the patch windows are disjoint,
    so the scatter-add degenerates to a single vectorized assignment over the
    whole kernel window (a strided 6-D view of the output with no aliasing).
    Overlapping windows keep the per-offset loop: each of the ``kh * kw``
    iterations is a fully vectorized strided add, and overlapping destinations
    cannot be written through one view without undefined aliasing.
    """
    n, c, h, w = image_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = _conv_output_size(h, kh, stride, padding)
    w_out = _conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    # repro: ok(ALLOC001, col2im is the autograd/training adjoint, not the fused eval hot path)
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


# ---------------------------------------------------------------------- #
# Convolution
# ---------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation, PyTorch convention).

    ``weight`` has shape ``(C_out, C_in, kh, kw)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d: input has {c_in} channels, weight expects {c_in_w}")
    windows = _window_view(x.data, kh, kw, stride, padding)  # view: (N, C_in, HO, WO, kh, kw)
    h_out, w_out = windows.shape[2], windows.shape[3]
    # One GEMM per sample; tensordot's internal packing of the view is the
    # only copy, vs. materializing the full patch matrix with im2col.  The
    # per-sample loop is deliberate, not a fallback: each pack stays
    # cache-resident (a whole-batch pack made bs=4 ~35% slower per sample
    # than bs=1 on the DOINN 32-channel 64x64 tiles), and each sample's GEMM
    # shape is independent of the batch partitioning, so outputs are
    # bit-identical however a stream is batched or sharded across workers
    # (BLAS picks different, differently-rounding kernels per matrix shape).
    # repro: ok(ALLOC001, unfused autograd conv2d; the fused eval path owns the cached buffers)
    out = np.empty((n, c_out, h_out, w_out), dtype=np.result_type(windows, weight.data))
    for i in range(n):
        part = np.tensordot(windows[i], weight.data, axes=([0, 3, 4], [1, 2, 3]))
        out[i] = part.transpose(2, 0, 1)                     # (C_out, HO, WO)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            grad_w = np.tensordot(grad, windows, axes=([0, 2, 3], [0, 2, 3]))
            weight.accumulate_grad(grad_w)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            w_mat = weight.data.reshape(c_out, -1)           # (C_out, C_in*kh*kw)
            grad_mat = grad.reshape(n, c_out, -1)            # (N, C_out, L)
            grad_cols = np.matmul(w_mat.T, grad_mat)         # (N, C_in*kh*kw, L)
            x.accumulate_grad(col2im(grad_cols, x.shape, kh, kw, stride, padding))

    return Tensor.from_op(out, parents, backward)


#: Activation kinds understood by :func:`conv_bn_act` /
#: :func:`conv_transpose_bn_act` (and the fused graphs built on them by
#: :mod:`repro.nn.fusion`).
FUSED_ACTIVATIONS = ("identity", "relu", "leaky_relu", "tanh")


def _check_fused_activation(activation: str, negative_slope: float) -> None:
    if activation not in FUSED_ACTIVATIONS:
        raise ValueError(f"unknown fused activation {activation!r}; expected one of {FUSED_ACTIVATIONS}")
    if activation == "leaky_relu" and not 0.0 <= negative_slope < 1.0:
        # The in-place max(x, slope*x) identity below needs slope in [0, 1).
        raise ValueError(f"fused leaky_relu requires 0 <= negative_slope < 1, got {negative_slope}")


def _apply_activation_inplace(arr: np.ndarray, activation: str, negative_slope: float) -> None:
    """Apply a fused activation in place on a cache-hot array."""
    if activation == "leaky_relu":
        # max(x, slope*x) == leaky_relu(x) for slope in [0, 1), in place.
        np.maximum(arr, arr * negative_slope, out=arr)
    elif activation == "relu":
        np.maximum(arr, 0.0, out=arr)
    elif activation == "tanh":
        np.tanh(arr, out=arr)


#: Output positions per GEMM of the stride-1 kernel of :func:`conv_bn_act`.
#: One block's ``(C_in*kw, CONV_BLOCK + (kh-1)*wp)`` kernel-row pack and its
#: ``(C_out, CONV_BLOCK)`` result stay cache resident instead of a whole-image
#: patch matrix streaming through DRAM.
CONV_BLOCK = 2048

#: Every block GEMM's column count is a multiple of this.  BLAS rounds a
#: ragged column edge differently from a full tile, and where the columns
#: split across threads depends on the thread count; with aligned blocks an
#: output element's bits depend on neither, so pooled workers (1 thread)
#: match the serial default bit for bit.
CONV_BLOCK_ALIGN = 64


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def _block_width(span: int) -> int:
    """GEMM width of a stride-1 block: :data:`CONV_BLOCK`, or ``span``
    rounded up to :data:`CONV_BLOCK_ALIGN` when that is narrower."""
    return min(CONV_BLOCK, _round_up(span, CONV_BLOCK_ALIGN))


def conv_gemm_shape(
    input_shape: tuple,
    weight_shape: tuple,
    stride: int = 1,
    output_padding: int = 0,
) -> tuple | None:
    """Shape of the ``gemm`` scratch :func:`conv_bn_act` needs, or None.

    ``input_shape`` is the padded input's.  A stride-1 conv needs the flat
    block scratch: one block's ``(C_in*kw, width + (kh-1)*wp)`` kernel-row
    pack, then its ``(C_out, width)`` result and ``(C_out, width)``
    accumulator, where ``width`` is :data:`CONV_BLOCK` or the output span
    rounded up to :data:`CONV_BLOCK_ALIGN` when that is narrower.  A
    strided conv with ``output_padding > 0`` needs one sample's
    ``(C_out, L)`` tile.  A borderless strided conv GEMMs straight into the
    output.
    """
    _, c_in, hp, wp = input_shape
    c_out, _, kh, kw = weight_shape
    if stride == 1:
        width = _block_width((hp - kh) * wp + wp - kw + 1)
        return (c_in * kw * (width + (kh - 1) * wp) + 2 * c_out * width,)
    length = _conv_output_size(hp, kh, stride, 0) * _conv_output_size(wp, kw, stride, 0)
    if output_padding:
        return (c_out, length)
    return None


def _land_block(part: np.ndarray, dst: np.ndarray, start: int, stop: int, wp: int) -> None:
    """Copy a block result into ``dst`` ``(C_out, H_out, W_out)``, dropping
    the ``kw - 1`` wrap-around columns of every padded-width row.

    ``part[:, j]`` is the output at flat padded-width position ``start + j``
    (row ``p // wp``, column ``p % wp``), for ``start + j < stop``.
    """
    c_out, _, w_out = dst.shape
    row, col = divmod(start, wp)
    pos = start
    if col:
        # Finish the row the previous block started.
        end = min(stop, row * wp + w_out)
        if pos < end:
            dst[:, row, col : col + end - pos] = part[:, : end - pos]
        row += 1
        pos = row * wp
    full = (stop - pos - w_out) // wp + 1  # rows wholly inside the block
    if full > 0:
        item = part.itemsize
        dst[:, row : row + full] = as_strided(
            part[:, pos - start :], shape=(c_out, full, w_out), strides=(part.strides[0], wp * item, item)
        )
        row += full
        pos += full * wp
    if pos < stop:
        # The next block finishes this row.
        dst[:, row, : stop - pos] = part[:, pos - start : stop - start]


def _conv_stride1_blocked(
    x: np.ndarray,
    w_rows: np.ndarray,
    bias_col: np.ndarray | None,
    dst: np.ndarray,
    scratch: np.ndarray,
    activation: str,
    negative_slope: float,
) -> None:
    """Stride-1 conv of the zero-bordered ``x`` into ``dst`` ``(N, C_out, H_out, W_out)``.

    ``w_rows[a]`` is kernel row ``a`` of the weight as a ``(C_out, C_in*kw)``
    matrix.  Each sample is read flat at padded width: output position
    ``p = r*wp + c`` sees input ``p + a*wp + b`` for kernel offset
    ``(a, b)``, so moving down one kernel row is a shift of ``wp`` columns.
    A block of positions therefore packs only its ``kw`` column shifts, plus
    a ``(kh-1)*wp`` halo, into one cache-resident ``(C_in*kw, cols +
    (kh-1)*wp)`` pack, and the ``kh`` kernel rows are ``kh`` GEMMs against
    views of that pack offset by ``a*wp``: the first lands in the block
    result, each later one in the accumulator and is added in place.
    Positions with ``c >= W_out`` wrap into the next row; their results are
    dropped on landing.  The final block is zero-padded up to
    :data:`CONV_BLOCK_ALIGN` columns rather than read past the buffer.
    """
    n, c_in, hp, wp = x.shape
    kh, c_out, k_len = w_rows.shape
    kw = k_len // c_in
    halo = (kh - 1) * wp
    span = (dst.shape[2] - 1) * wp + dst.shape[3]
    width = _block_width(span)
    pack_size = k_len * (width + halo)
    pack_flat = scratch[:pack_size]
    result_flat = scratch[pack_size : pack_size + c_out * width]
    acc_flat = scratch[pack_size + c_out * width :]
    x = np.ascontiguousarray(x)
    item = x.itemsize
    for i in range(n):
        src = x[i].reshape(c_in, hp * wp)
        for start in range(0, span, width):
            stop = min(start + width, span)
            valid = stop - start
            cols = _round_up(valid, CONV_BLOCK_ALIGN)
            reach = valid + halo
            pack = pack_flat[: k_len * (cols + halo)].reshape(k_len, cols + halo)
            pack.reshape(c_in, kw, cols + halo)[..., :reach] = as_strided(
                src[:, start:], shape=(c_in, kw, reach), strides=(src.strides[0], item, item)
            )
            if valid < cols:
                pack[:, reach:] = 0.0
            part = np.matmul(w_rows[0], pack[:, :cols], out=result_flat[: c_out * cols].reshape(c_out, cols))
            acc = acc_flat[: c_out * cols].reshape(c_out, cols)
            for a in range(1, kh):
                part += np.matmul(w_rows[a], pack[:, a * wp : a * wp + cols], out=acc)
            if bias_col is not None:
                part += bias_col
            _apply_activation_inplace(part, activation, negative_slope)
            _land_block(part, dst[i], start, stop, wp)


def conv_bn_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str = "identity",
    negative_slope: float = 0.01,
    input_is_padded: bool = False,
    output_padding: int = 0,
    out: np.ndarray | None = None,
    gemm: np.ndarray | None = None,
) -> np.ndarray:
    """Fused inference kernel: conv (+ folded BN affine) (+ activation), one pass.

    This is the eval-mode hot path compiled by :mod:`repro.nn.fusion`: the
    batch-norm affine is folded into ``weight``/``bias`` ahead of time, and the
    activation is applied to each GEMM output block while it is still
    cache resident — instead of three separate passes (conv, batch norm,
    activation) over a working set that spills the per-core cache.

    Stride-1 convolutions run cache-blocked, one kernel row at a time:
    for each block of :data:`CONV_BLOCK` output positions the ``kw`` column
    shifts of the zero-bordered input, plus a ``(kh-1)``-row halo, are
    packed once into ``C_in*kw`` rows; ``kh`` GEMMs of the per-kernel-row
    ``(C_out, C_in*kw)`` weight matrices against that pack, each offset by
    one padded row, accumulate the block, whose width is a multiple of
    :data:`CONV_BLOCK_ALIGN`, before it is copied into the output.
    Strided convolutions run one whole-image GEMM per sample.

    Operates on plain ndarrays (no autograd); training forwards keep using
    :func:`conv2d` / :func:`batch_norm2d` unchanged.

    Parameters
    ----------
    input_is_padded:
        The spatial border of ``x`` already carries this op's ``padding``
        zeros (produced by a previous fused op via ``output_padding``), so the
        per-call ``np.pad`` copy is skipped entirely.
    output_padding:
        Emit the result inside a zero border of this width, ready to be
        consumed pad-free by a following conv with ``padding ==
        output_padding`` — the "pad once" half of the fusion win.
    out:
        Optional preallocated ``(N, C_out, H_out + 2*output_padding, W_out +
        2*output_padding)`` buffer whose border is already zero (a fused
        chain's scratch cache); only the interior is written.
    gemm:
        Optional GEMM scratch (a fused chain's buffer cache), fully
        rewritten every call, no zero-border contract.  For stride 1 it is
        the flat block scratch of :func:`conv_gemm_shape`: one block's
        kernel-row pack, result and accumulator.  For a strided
        conv with ``output_padding > 0`` it holds one sample's ``(C_out, L)``
        output tile before the copy into the bordered output.
    """
    _check_fused_activation(activation, negative_slope)
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, _, _ = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_bn_act: input has {c_in} channels, weight expects {c_in_w}")
    if padding and not input_is_padded:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    _, _, hp, wp = x.shape
    h_out = _conv_output_size(hp, kh, stride, 0)
    w_out = _conv_output_size(wp, kw, stride, 0)
    oh, ow = h_out + 2 * output_padding, w_out + 2 * output_padding
    dtype = np.result_type(x, weight)
    if out is None:
        # repro: ok(ALLOC001, API fallback when no out= buffer is passed; FusedChain always passes its cached one)
        alloc = np.zeros if output_padding else np.empty
        out = alloc((n, c_out, oh, ow), dtype=dtype)
    elif out.shape != (n, c_out, oh, ow) or out.dtype != dtype:
        raise ValueError(
            f"conv_bn_act: out buffer has shape {out.shape} dtype {out.dtype}, "
            f"expected {(n, c_out, oh, ow)} dtype {dtype}"
        )
    bias_col = None if bias is None else np.asarray(bias).reshape(c_out, 1)
    interior = out[:, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out]
    length = h_out * w_out
    gemm_shape = conv_gemm_shape(x.shape, weight.shape, stride, output_padding)
    if gemm_shape is not None:
        if gemm is None:
            # repro: ok(ALLOC001, scratch fallback when the caller passes no buffer; FusedChain passes its cached one)
            gemm = np.empty(gemm_shape, dtype=dtype)
        elif gemm.shape != gemm_shape or gemm.dtype != dtype:
            raise ValueError(
                f"conv_bn_act: gemm buffer has shape {gemm.shape} dtype {gemm.dtype}, "
                f"expected {gemm_shape} dtype {dtype}"
            )
    if stride == 1:
        # One small copy of the weight into per-kernel-row (C_out, C_in*kw)
        # matrices; the kernel-row pack is the single copy of the input.
        w_rows = np.ascontiguousarray(weight.transpose(2, 0, 1, 3)).reshape(kh, c_out, c_in * kw)
        _conv_stride1_blocked(x, w_rows, bias_col, interior, gemm, activation, negative_slope)
        return out
    # The (C_out, C_in*kh*kw) weight matrix is a free view of the PyTorch
    # weight layout — no per-call weight pack (tensordot repacks it every
    # call).  The patch pack is the single remaining copy of the input.
    w_mat = weight.reshape(c_out, -1)
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    for i in range(n):
        # One (C_in*kh*kw, L) patch matrix and GEMM per sample.  Without a
        # border the GEMM writes straight into the output; the bordered
        # interior is not contiguous, so that result lands in scratch first.
        cols = windows[i].transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, length)
        if output_padding == 0:
            part = np.matmul(w_mat, cols, out=out[i].reshape(c_out, length))
        else:
            part = np.matmul(w_mat, cols, out=gemm)
        if bias_col is not None:
            part += bias_col
        _apply_activation_inplace(part, activation, negative_slope)
        if output_padding:
            interior[i] = part.reshape(c_out, h_out, w_out)
    return out


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D transposed convolution (PyTorch convention).

    ``weight`` has shape ``(C_in, C_out, kh, kw)`` and the output spatial size
    is ``(H - 1) * stride - 2 * padding + k``.
    """
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose2d: input has {c_in} channels, weight expects {c_in_w}")
    h_out = (h - 1) * stride - 2 * padding + kh
    w_out = (w - 1) * stride - 2 * padding + kw

    # Inference hot path: every step below is either a free view (the weight
    # matrix and flattened-input reshapes, and col2im's crop) or an
    # unavoidable buffer (the GEMM result and the scatter image) — the only
    # per-call allocation beyond those was the bias add, which built a whole
    # fresh output array (`out = out + bias...`); it now adds in place.
    w_mat = weight.data.reshape(c_in, -1)                    # (C_in, C_out*kh*kw)
    x_mat = x.data.reshape(n, c_in, h * w)                   # (N, C_in, H*W)
    cols = np.matmul(w_mat.T, x_mat)                         # (N, C_out*kh*kw, H*W)
    out = col2im(cols, (n, c_out, h_out, w_out), kh, kw, stride, padding)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad_cols = im2col(grad, kh, kw, stride, padding)    # (N, C_out*kh*kw, H*W)
        if x.requires_grad:
            grad_x = np.matmul(w_mat, grad_cols)             # (N, C_in, H*W)
            x.accumulate_grad(grad_x.reshape(x.shape))
        if weight.requires_grad:
            grad_w = np.tensordot(x_mat, grad_cols, axes=([0, 2], [0, 2]))
            weight.accumulate_grad(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))

    return Tensor.from_op(out, parents, backward)


def conv_transpose_bn_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str = "identity",
    negative_slope: float = 0.01,
    output_padding: int = 0,
    out: np.ndarray | None = None,
    scatter: np.ndarray | None = None,
) -> np.ndarray:
    """Fused inference kernel: transposed conv (+ folded BN) (+ activation).

    The transposed-conv mirror of :func:`conv_bn_act`, closing the last
    unfused link of the inference graphs compiled by :mod:`repro.nn.fusion`:
    ``weight`` (``(C_in, C_out, kh, kw)``, PyTorch transposed layout) already
    carries the folded eval-mode batch-norm affine, each sample runs one GEMM
    against the ``(C_in, C_out*kh*kw)`` weight matrix (a free view of the
    folded weight), and the column block is scattered back to image layout
    with a vectorized ``col2im``-style strided assignment (non-overlapping
    kernels, e.g. the UNet 2x2/stride-2 up path) or the per-offset
    scatter-add (overlapping kernels, e.g. DOINN's 4x4/stride-2 ``dconv*``).
    Bias and activation are applied in place while the output is cache hot.

    A transposed conv consumes its input unpadded (its ``padding`` *crops*
    the output), so unlike :func:`conv_bn_act` there is no
    ``input_is_padded`` switch; the crop itself is fused — the cropped result
    is emitted directly inside the ``output_padding`` zero border the next
    conv's padding needs, so a ``dconv -> conv`` chain never materializes the
    uncropped image followed by a separate pad copy.

    Operates on plain ndarrays (no autograd); training forwards keep using
    :func:`conv_transpose2d` unchanged.

    Parameters
    ----------
    output_padding:
        Emit the (cropped) result inside a zero border of this width, ready
        to be consumed pad-free by a following conv with ``padding ==
        output_padding`` via its ``input_is_padded`` contract.
    out:
        Optional preallocated ``(N, C_out, H_out + 2*output_padding, W_out +
        2*output_padding)`` buffer whose border is already zero; only the
        interior is written.
    scatter:
        Optional per-sample ``(C_out, H_out + 2*padding, W_out + 2*padding)``
        scratch for the overlapping-kernel scatter (a fused chain's buffer
        cache); it is fully rewritten every sample, so unlike ``out`` it has
        no zero-border contract.  Ignored on the non-overlapping fast path.
    """
    _check_fused_activation(activation, negative_slope)
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose_bn_act: input has {c_in} channels, weight expects {c_in_w}")
    h_out = (h - 1) * stride - 2 * padding + kh
    w_out = (w - 1) * stride - 2 * padding + kw
    oh, ow = h_out + 2 * output_padding, w_out + 2 * output_padding
    dtype = np.result_type(x, weight)
    if out is None:
        # repro: ok(ALLOC001, API fallback when no out= buffer is passed; FusedChain always passes its cached one)
        alloc = np.zeros if output_padding else np.empty
        out = alloc((n, c_out, oh, ow), dtype=dtype)
    elif out.shape != (n, c_out, oh, ow) or out.dtype != dtype:
        raise ValueError(
            f"conv_transpose_bn_act: out buffer has shape {out.shape} dtype {out.dtype}, "
            f"expected {(n, c_out, oh, ow)} dtype {dtype}"
        )
    # Non-overlapping, gap-free, crop-free kernels (stride == kh == kw,
    # padding == 0 — the UNet up path) scatter-assign straight into the
    # output buffer; everything else goes through the padded scatter image.
    direct = padding == 0 and stride == kh and stride == kw
    if not direct:
        h_pad, w_pad = h_out + 2 * padding, w_out + 2 * padding
        if scatter is None:
            # repro: ok(ALLOC001, scratch fallback when the caller passes no buffer; FusedChain passes its cached one)
            scatter = np.empty((c_out, h_pad, w_pad), dtype=dtype)
        elif scatter.shape != (c_out, h_pad, w_pad) or scatter.dtype != dtype:
            raise ValueError(
                f"conv_transpose_bn_act: scatter buffer has shape {scatter.shape} dtype "
                f"{scatter.dtype}, expected {(c_out, h_pad, w_pad)} dtype {dtype}"
            )
    # The (C_in, C_out*kh*kw) weight matrix is a free view of the folded
    # weight; BLAS consumes the transpose without a copy.  The per-sample
    # loop keeps each GEMM cache-resident and partition-invariant (outputs
    # are bit-identical however a stream is batched or sharded).
    w_mat = weight.reshape(c_in, c_out * kh * kw)
    bias_arr = None if bias is None else np.asarray(bias)
    x_flat = x.reshape(n, c_in, h * w)
    for i in range(n):
        cols = np.matmul(w_mat.T, x_flat[i])                 # (C_out*kh*kw, H*W)
        tiles = cols.reshape(c_out, kh, kw, h, w)
        if direct:
            # Bias/activation run on the GEMM output while it is cache hot
            # (every output pixel receives exactly one contribution), then
            # one strided assignment writes the kernel tiles into place.
            if bias_arr is not None:
                per_channel = cols.reshape(c_out, kh * kw * h * w)
                per_channel += bias_arr[:, None]
            _apply_activation_inplace(cols, activation, negative_slope)
            interior = out[i, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out]
            sc, sh, sw = interior.strides
            view = as_strided(
                interior,
                shape=(c_out, h, kh, w, kw),
                strides=(sc, sh * stride, sh, sw * stride, sw),
            )
            view[:] = tiles.transpose(0, 3, 1, 4, 2)
            continue
        scatter.fill(0.0)
        if stride >= kh and stride >= kw:
            # Disjoint windows: one vectorized strided assignment (gaps left
            # by stride > k stay zero from the fill).
            sc, sh, sw = scatter.strides
            view = as_strided(
                scatter,
                shape=(c_out, h, kh, w, kw),
                strides=(sc, sh * stride, sh, sw * stride, sw),
            )
            view[:] = tiles.transpose(0, 3, 1, 4, 2)
        else:
            for ki in range(kh):
                i_end = ki + stride * h
                for kj in range(kw):
                    scatter[:, ki:i_end:stride, kj : kj + stride * w : stride] += tiles[:, ki, kj]
        region = scatter[:, padding : padding + h_out, padding : padding + w_out] if padding else scatter
        if bias_arr is not None:
            region += bias_arr[:, None, None]
        _apply_activation_inplace(region, activation, negative_slope)
        out[i, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out] = region
    return out


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #
def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Non-overlapping average pooling (``stride`` defaults to ``kernel_size``)."""
    stride = stride or kernel_size
    if stride != kernel_size:
        raise NotImplementedError("avg_pool2d only supports stride == kernel_size")
    n, c, h, w = x.shape
    if h % kernel_size or w % kernel_size:
        raise ValueError(f"avg_pool2d: spatial size {(h, w)} not divisible by {kernel_size}")
    h_out, w_out = h // kernel_size, w // kernel_size
    reshaped = x.data.reshape(n, c, h_out, kernel_size, w_out, kernel_size)
    out = reshaped.mean(axis=(3, 5))

    def backward(grad: np.ndarray) -> None:
        scale = 1.0 / (kernel_size * kernel_size)
        expanded = np.repeat(np.repeat(grad, kernel_size, axis=2), kernel_size, axis=3)
        x.accumulate_grad(expanded * scale)

    return Tensor.from_op(out, (x,), backward)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Non-overlapping max pooling (``stride`` defaults to ``kernel_size``)."""
    stride = stride or kernel_size
    if stride != kernel_size:
        raise NotImplementedError("max_pool2d only supports stride == kernel_size")
    n, c, h, w = x.shape
    if h % kernel_size or w % kernel_size:
        raise ValueError(f"max_pool2d: spatial size {(h, w)} not divisible by {kernel_size}")
    h_out, w_out = h // kernel_size, w // kernel_size
    reshaped = x.data.reshape(n, c, h_out, kernel_size, w_out, kernel_size)
    windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h_out, w_out, -1)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        # repro: ok(ALLOC001, max-pool backward is training-only; gradients are not the fused hot path)
        grad_windows = np.zeros_like(windows)
        np.put_along_axis(grad_windows, argmax[..., None], grad[..., None], axis=-1)
        grad_x = (
            grad_windows.reshape(n, c, h_out, w_out, kernel_size, kernel_size)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x.accumulate_grad(grad_x)

    return Tensor.from_op(out, (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling of the spatial dimensions by ``scale``."""
    out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)
    n, c, h, w = x.shape

    def backward(grad: np.ndarray) -> None:
        reshaped = grad.reshape(n, c, h, scale, w, scale)
        x.accumulate_grad(reshaped.sum(axis=(3, 5)))

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------- #
# Normalization
# ---------------------------------------------------------------------- #
def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel dimension of a 4-D tensor.

    ``running_mean``/``running_var`` are plain arrays owned by the calling
    layer; they are updated in place in training mode.
    """
    n, c, h, w = x.shape
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
        mean_b = mean.reshape(1, c, 1, 1)
        std = np.sqrt(var.reshape(1, c, 1, 1) + eps)
        x_hat = (x.data - mean_b) / std
        out = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)
    else:
        # Inference hot path: fold the normalization into one per-channel
        # affine (two array passes instead of four); x_hat is recomputed
        # lazily in backward, which only tests exercise in eval mode.  The
        # mean is snapshotted: running_mean is the layer-owned array and a
        # training forward may mutate it in place before backward runs.
        mean, var = running_mean.copy(), running_var
        std = np.sqrt(var.reshape(1, c, 1, 1) + eps)
        scale = gamma.data.reshape(1, c, 1, 1) / std
        shift = beta.data.reshape(1, c, 1, 1) - mean.reshape(1, c, 1, 1) * scale
        out = x.data * scale + shift
        x_hat = None

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            normalized = (
                x_hat if x_hat is not None else (x.data - mean.reshape(1, c, 1, 1)) / std
            )
            gamma.accumulate_grad((grad * normalized).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = gamma.data.reshape(1, c, 1, 1)
            if training:
                grad_xhat = grad * g
                term1 = grad_xhat
                term2 = grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
                term3 = x_hat * (grad_xhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
                x.accumulate_grad((term1 - term2 - term3) / std)
            else:
                x.accumulate_grad(grad * g / std)

    return Tensor.from_op(out, (x, gamma, beta), backward)


# ---------------------------------------------------------------------- #
# Activations (thin wrappers over Tensor methods for functional style)
# ---------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()
