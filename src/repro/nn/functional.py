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
for callers that need the patch matrix itself.  The fused eval kernels
pack a stride-1 conv's input one cache-resident block of
:data:`CONV_BLOCK` output positions at a time instead, and only ``C_in*kw``
rows per block: the ``kh`` kernel rows read the same pack one padded row
apart, as ``kh`` accumulating GEMMs (the partial-im2col form of Anderson
et al., "Low-memory GEMM-based convolution algorithms for deep neural
networks", arXiv:1709.03395).

Both fused kernels (:func:`conv_bn_act`, :func:`conv_transpose_bn_act`) run
that one stride-1 block kernel.  A strided conv is the stride-1 conv of a
space-to-depth copy of its input, and a transposed conv is one sub-pixel
stride-1 conv whose output channels are its ``stride**2`` output phases
(Shi et al., arXiv:1609.05158), each landed straight into its strided
slice of the output.  The work units are (sample, block) pairs, with bounds
set by the geometry alone, and they run on the process's compute team
(:func:`repro.nn.backends.compute_team`); a team of more than one thread
runs with BLAS capped at one, so single-threaded GEMMs are parallelised
over the units, as in Georganas et al., "Anatomy of High-Performance Deep
Learning Convolutions on SIMD Architectures" (arXiv:1808.05567).  Any team
size gives the same bits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .backends import compute_team
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


#: Output positions per GEMM of the block kernel behind :func:`conv_bn_act`
#: and :func:`conv_transpose_bn_act`.  One block's ``(C_in*kw, CONV_BLOCK +
#: (kh-1)*wp)`` kernel-row pack and its ``(C_out, CONV_BLOCK)`` result stay
#: cache resident instead of a whole-image patch matrix streaming through
#: DRAM.  Blocks are the work units the compute team
#: (:func:`repro.nn.backends.compute_team`) spreads over its threads; their
#: bounds depend on the geometry alone.
CONV_BLOCK = 2048

#: Every block GEMM's column count is a multiple of this.  BLAS rounds a
#: ragged column edge differently from a full tile, and how it tiles (and,
#: when it runs threaded, splits) the columns depends on its thread count;
#: with aligned blocks an output element's bits depend on neither, so a team
#: that runs one-thread GEMMs matches a process that leaves BLAS threaded.
CONV_BLOCK_ALIGN = 64


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def _block_width(span: int) -> int:
    """GEMM width of a block: :data:`CONV_BLOCK`, or ``span`` rounded up to
    :data:`CONV_BLOCK_ALIGN` when that is narrower."""
    return min(CONV_BLOCK, _round_up(span, CONV_BLOCK_ALIGN))


def _block_scratch_size(input_shape: tuple, weight_shape: tuple, grid: tuple) -> int:
    """Length of the flat scratch :func:`_conv_stride1_blocked` needs for a
    stride-1 conv of ``weight_shape`` over ``input_shape`` that computes the
    ``grid`` of output rows and columns: per team member, one block's
    ``(C_in*kw, width + (kh-1)*wp)`` kernel-row pack, then its ``(C_out,
    width)`` result and ``(C_out, width)`` accumulator."""
    _, c_in, _, wp = input_shape
    c_out, _, kh, kw = weight_shape
    width = _block_width((grid[0] - 1) * wp + grid[1])
    return compute_team().size * (c_in * kw * (width + (kh - 1) * wp) + 2 * c_out * width)


def _space_to_depth_shapes(input_shape: tuple, weight_shape: tuple, stride: int) -> tuple:
    """Input and weight shapes of the stride-1 conv a ``stride`` conv becomes:
    ``(N, C_in*s*s, ceil(H/s), ceil(W/s))`` and ``(C_out, C_in*s*s,
    ceil(kh/s), ceil(kw/s))``.  Stride 1 keeps both shapes."""
    n, c_in, hp, wp = input_shape
    c_out, _, kh, kw = weight_shape
    s = stride
    return (n, c_in * s * s, -(-hp // s), -(-wp // s)), (c_out, c_in * s * s, -(-kh // s), -(-kw // s))


def _subpixel_geometry(input_shape: tuple, weight_shape: tuple, stride: int, padding: int) -> tuple:
    """Padded input shape, weight shape and output grid of the stride-1 conv
    a transposed conv becomes.

    With ``J = ceil(k/s)`` the input is padded by ``J-1`` before and by
    ``max(0, Q - H)`` after, ``Q = (H_out-1+p)//s + 1`` being the conv rows
    the output phases read; the conv has ``s*s*C_out`` output channels and a
    ``J x J`` kernel.
    """
    n, c_in, h, w = input_shape
    _, c_out, kh, kw = weight_shape
    s, p = stride, padding
    jh, jw = -(-kh // s), -(-kw // s)
    grid = ((h - 1) * s - p + kh - 1) // s + 1, ((w - 1) * s - p + kw - 1) // s + 1
    padded = (n, c_in, jh - 1 + max(h, grid[0]), jw - 1 + max(w, grid[1]))
    return padded, (s * s * c_out, c_in, jh, jw), grid


def conv_gemm_shape(input_shape: tuple, weight_shape: tuple, stride: int = 1) -> tuple:
    """Shape of the flat ``gemm`` scratch :func:`conv_bn_act` needs.

    ``input_shape`` is the padded input's.  A strided conv first holds the
    space-to-depth copy of its input ``(N, C_in*s*s, ceil(H/s),
    ceil(W/s))``.  The rest is the block scratch, one equal slice per member
    of the compute team, each holding one block's kernel-row pack, result and
    accumulator, at a width of :data:`CONV_BLOCK` or the output span rounded
    up to :data:`CONV_BLOCK_ALIGN` when that is narrower.
    """
    x_shape, w_shape = _space_to_depth_shapes(input_shape, weight_shape, stride)
    grid = tuple((size - k) // stride + 1 for size, k in zip(input_shape[2:], weight_shape[2:]))
    copy = int(np.prod(x_shape)) if stride > 1 else 0
    return (copy + _block_scratch_size(x_shape, w_shape, grid),)


def conv_transpose_gemm_shape(
    input_shape: tuple, weight_shape: tuple, stride: int = 1, padding: int = 0
) -> tuple:
    """Shape of the flat ``gemm`` scratch :func:`conv_transpose_bn_act` needs:
    the ``J-1``-padded copy of the input when ``J = ceil(k/s) > 1`` (a
    ``J == 1`` kernel reads the input in place), then the block scratch of
    :func:`conv_gemm_shape`."""
    x_shape, w_shape, grid = _subpixel_geometry(input_shape, weight_shape, stride, padding)
    copy = int(np.prod(x_shape)) if x_shape != tuple(input_shape) else 0
    return (copy + _block_scratch_size(x_shape, w_shape, grid),)


def _kernel_rows(weight: np.ndarray) -> np.ndarray:
    """``(C_out, C_in, kh, kw)`` -> ``kh`` per-kernel-row ``(C_out, C_in*kw)`` matrices."""
    c_out, c_in, kh, kw = weight.shape
    return np.ascontiguousarray(weight.transpose(2, 0, 1, 3)).reshape(kh, c_out, c_in * kw)


def _stride_cells(weight: np.ndarray, stride: int) -> np.ndarray:
    """``weight`` ``(A, B, kh, kw)`` as ``(A, B, J, s, J, s)``: tap ``a*s + r``
    at ``[..., a, r, ...]``, with ``J = ceil(k/s)`` and zero taps past the
    kernel."""
    *_, kh, kw = weight.shape
    s = stride
    jh, jw = -(-kh // s), -(-kw // s)
    if (jh * s, jw * s) != (kh, kw):
        weight = np.pad(weight, ((0, 0), (0, 0), (0, jh * s - kh), (0, jw * s - kw)))
    return weight.reshape(*weight.shape[:2], jh, s, jw, s)


def _space_to_depth_rows(weight: np.ndarray, stride: int) -> np.ndarray:
    """Kernel rows of the space-to-depth weight of a ``(C_out, C_in, kh, kw)``
    conv, ``w2[co, (c, ph, pw), a, b] = w[co, c, a*s+ph, b*s+pw]``: row ``a``
    is the ``(C_out, (c, ph, pw, b))`` matrix."""
    cells = _stride_cells(weight, stride)  # [co, c, a, ph, b, pw]
    return np.ascontiguousarray(cells.transpose(2, 0, 1, 3, 5, 4)).reshape(cells.shape[2], weight.shape[0], -1)


def _space_to_depth(x: np.ndarray, stride: int, out: np.ndarray) -> None:
    """``out[n, (c, ph, pw), i, j] = x[n, c, i*s+ph, j*s+pw]``, zero past ``x``."""
    n, c = x.shape[:2]
    s = stride
    cells = out.reshape(n, c, s, s, *out.shape[2:])
    for ph in range(s):
        for pw in range(s):
            src = x[:, :, ph::s, pw::s]
            dst = cells[:, :, ph, pw]
            h, w = src.shape[2:]
            dst[:, :, :h, :w] = src
            dst[:, :, h:] = 0.0
            dst[:, :, :h, w:] = 0.0


def _subpixel_rows(weight: np.ndarray, stride: int) -> np.ndarray:
    """Kernel rows of the sub-pixel form of a ``(C_in, C_out, kh, kw)``
    transposed conv: output channel ``(rh, rw, co)`` at window offset ``(m,
    n)`` is tap ``(rh + s*(J-1-m), rw + s*(J-1-n))``, zero past the kernel,
    and row ``m`` is the ``(s*s*C_out, (ci, n))`` matrix."""
    cells = _stride_cells(weight, stride)[:, :, ::-1, :, ::-1]  # [ci, co, m, rh, n, rw]
    jh, jw = cells.shape[2], cells.shape[4]
    return np.ascontiguousarray(cells.transpose(2, 3, 5, 1, 0, 4)).reshape(jh, -1, weight.shape[0] * jw)


def _pad_into(x: np.ndarray, out: np.ndarray, top: int, left: int) -> None:
    """Copy ``x`` into ``out`` at ``(top, left)`` and zero the rest of ``out``."""
    h, w = x.shape[2:]
    out[:, :, :top] = 0.0
    out[:, :, top + h :] = 0.0
    out[:, :, top : top + h, :left] = 0.0
    out[:, :, top : top + h, left + w :] = 0.0
    out[:, :, top : top + h, left : left + w] = x


def _strided(base: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """A strided view of the contiguous ``base`` from flat element ``offset``
    on, ``strides`` in elements.  Unlike ``as_strided`` the constructor
    checks the view's bounds, and it costs a tenth as much per call, which
    counts at several views per block."""
    item = base.itemsize
    return np.ndarray(shape, base.dtype, base, offset * item, tuple(item * step for step in strides))


def _land_block(part: np.ndarray, dst: np.ndarray, start: int, stop: int, wp: int, row0: int, col0: int) -> None:
    """Copy a block result into ``dst`` ``(C, h, w)``.

    ``part[:, j]`` is the output at flat padded-width position ``start + j``
    (row ``p // wp``, column ``p % wp``), for ``start + j < stop``.  Output
    ``(row, col)`` lands at ``dst[:, row - row0, col - col0]``; the rest is
    dropped: the ``kw - 1`` wrap-around columns of every row, and the conv
    row or column a sub-pixel phase does not own.
    """
    c, h, w = dst.shape
    # The rows whose [col0, col0 + w) columns lie wholly inside the block.
    lo = max(row0, -(-(start - col0) // wp))
    hi = min(row0 + h, (stop - col0 - w) // wp + 1)
    if lo < hi:
        dst[:, lo - row0 : hi - row0] = _strided(
            part, lo * wp + col0 - start, (c, hi - lo, w), (part.shape[1], wp, 1)
        )
    # The rows the block's edges cut, which the neighbouring blocks finish.
    for row in {start // wp, (stop - 1) // wp}:
        if row0 <= row < row0 + h and not lo <= row < hi:
            first = max(start, row * wp + col0)
            last = min(stop, row * wp + col0 + w)
            if first < last:
                col = first - row * wp - col0
                dst[:, row - row0, col : col + last - first] = part[:, first - start : last - start]


def _conv_stride1_blocked(
    x: np.ndarray,
    w_rows: np.ndarray,
    bias_col: np.ndarray | None,
    phases: list,
    scratch: np.ndarray,
    activation: str,
    negative_slope: float,
) -> None:
    """Stride-1 conv of the zero-bordered ``x``, landed into ``phases``.

    ``w_rows[a]`` is kernel row ``a`` of the weight as a ``(C_out, C_in*kw)``
    matrix.  ``phases`` is a list of ``(dst, row0, col0)``: the output
    channels split evenly over them in order, and phase ``dst`` ``(N, C, h,
    w)`` takes output rows ``row0 .. row0+h-1`` and columns ``col0 ..
    col0+w-1`` of its channels (see :func:`_land_block`); a plain conv has
    the one phase ``(out, 0, 0)``.  Each sample is read flat at padded
    width: output position ``p = r*wp + c`` sees input ``p + a*wp + b`` for
    kernel offset ``(a, b)``, so moving down one kernel row is a shift of
    ``wp`` columns.  A block of positions therefore packs only its ``kw``
    column shifts, plus a ``(kh-1)*wp`` halo, into one cache-resident
    ``(C_in*kw, cols + (kh-1)*wp)`` pack, and the ``kh`` kernel rows are
    ``kh`` GEMMs against views of that pack offset by ``a*wp``: the first
    lands in the block result, each later one in the accumulator and is
    added in place.  Positions with ``c`` past the phases' columns wrap
    into the next row; their results are dropped on landing.  The final
    block is zero-padded up to :data:`CONV_BLOCK_ALIGN` columns rather than
    read past the buffer.  Every (sample, block) pair is one work unit of
    the compute team, packed in the running member's slice of ``scratch``.
    """
    n, c_in, hp, wp = x.shape
    kh, c_out, k_len = w_rows.shape
    kw = k_len // c_in
    group = c_out // len(phases)
    halo = (kh - 1) * wp
    rows = max(row0 + dst.shape[2] for dst, row0, _ in phases)
    span = (rows - 1) * wp + max(col0 + dst.shape[3] for dst, _, col0 in phases)
    width = _block_width(span)
    blocks = -(-span // width)
    pack_size = k_len * (width + halo)
    # Each member's (pack, result, accumulator) slice of the scratch.
    members = [
        (flat[:pack_size], flat[pack_size : pack_size + c_out * width], flat[pack_size + c_out * width :])
        for flat in scratch.reshape(-1, pack_size + 2 * c_out * width)
    ]
    x = np.ascontiguousarray(x)

    def unit(index: int, member: int) -> None:
        i, block = divmod(index, blocks)
        pack_flat, result_flat, acc_flat = members[member]
        start = block * width
        stop = min(start + width, span)
        valid = stop - start
        cols = _round_up(valid, CONV_BLOCK_ALIGN)
        reach = valid + halo
        pack = pack_flat[: k_len * (cols + halo)].reshape(k_len, cols + halo)
        pack.reshape(c_in, kw, cols + halo)[..., :reach] = _strided(
            x[i], start, (c_in, kw, reach), (hp * wp, 1, 1)
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
        for p, (dst, row0, col0) in enumerate(phases):
            _land_block(part[p * group : (p + 1) * group], dst[i], start, stop, wp, row0, col0)

    compute_team().run(unit, n * blocks, c_out * k_len * kh * width, len(members))


def _fused_output(out, shape: tuple, dtype, output_padding: int, name: str) -> np.ndarray:
    """The caller's ``out`` buffer, checked, or a fresh one with a zero border."""
    if out is None:
        # repro: ok(ALLOC001, API fallback when no out= buffer is passed; FusedChain always passes its cached one)
        return (np.zeros if output_padding else np.empty)(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(
            f"{name}: out buffer has shape {out.shape} dtype {out.dtype}, expected {shape} dtype {dtype}"
        )
    return out


def _gemm_scratch(gemm, shape: tuple, dtype, name: str) -> np.ndarray:
    """The caller's ``gemm`` scratch, checked, or a fresh one."""
    if gemm is None:
        # repro: ok(ALLOC001, scratch fallback when the caller passes no buffer; FusedChain passes its cached one)
        return np.empty(shape, dtype=dtype)
    if gemm.shape != shape or gemm.dtype != dtype:
        raise ValueError(
            f"{name}: gemm buffer has shape {gemm.shape} dtype {gemm.dtype}, expected {shape} dtype {dtype}"
        )
    return gemm


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

    Convolutions run cache-blocked, one kernel row at a time: for each
    block of :data:`CONV_BLOCK` output positions the ``kw`` column shifts of
    the zero-bordered input, plus a ``(kh-1)``-row halo, are packed once
    into ``C_in*kw`` rows; ``kh`` GEMMs of the per-kernel-row ``(C_out,
    C_in*kw)`` weight matrices against that pack, each offset by one padded
    row, accumulate the block, whose width is a multiple of
    :data:`CONV_BLOCK_ALIGN`, before it is copied into the output.  A
    strided conv runs as the stride-1 conv it equals over a space-to-depth
    copy of its input: ``(C_in*s*s, ceil(H/s), ceil(W/s))`` channels and a
    ``ceil(k/s)``-square kernel ``w2[co, (c,ph,pw), a, b] = w[co, c,
    a*s+ph, b*s+pw]`` (zero past the kernel), of which the first ``H_out x
    W_out`` outputs are kept.  Blocks are the work units of the process's
    compute team (:func:`repro.nn.backends.compute_team`), so the bits do
    not depend on the team size.

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
        Optional scratch (a fused chain's buffer cache) of
        :func:`conv_gemm_shape`, fully rewritten every call, no zero-border
        contract: the space-to-depth copy of a strided conv's input, then
        one slice per team member holding one block's kernel-row pack,
        result and accumulator.
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
    dtype = np.result_type(x, weight)
    shape = (n, c_out, h_out + 2 * output_padding, w_out + 2 * output_padding)
    out = _fused_output(out, shape, dtype, output_padding, "conv_bn_act")
    gemm = _gemm_scratch(gemm, conv_gemm_shape(x.shape, weight.shape, stride), dtype, "conv_bn_act")
    interior = out[:, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out]
    if stride > 1:
        x_shape, _ = _space_to_depth_shapes(x.shape, weight.shape, stride)
        copy = int(np.prod(x_shape))
        x2 = gemm[:copy].reshape(x_shape)
        _space_to_depth(x, stride, x2)
        x, gemm = x2, gemm[copy:]
        w_rows = _space_to_depth_rows(weight, stride)
    else:
        w_rows = _kernel_rows(weight)
    bias_col = None if bias is None else np.asarray(bias).reshape(c_out, 1)
    _conv_stride1_blocked(x, w_rows, bias_col, [(interior, 0, 0)], gemm, activation, negative_slope)
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
    gemm: np.ndarray | None = None,
) -> np.ndarray:
    """Fused inference kernel: transposed conv (+ folded BN) (+ activation).

    The transposed-conv mirror of :func:`conv_bn_act`, closing the last
    unfused link of the inference graphs compiled by :mod:`repro.nn.fusion`:
    ``weight`` (``(C_in, C_out, kh, kw)``, PyTorch transposed layout) already
    carries the folded eval-mode batch-norm affine.  It runs as one
    sub-pixel stride-1 conv through the block kernel of :func:`conv_bn_act`
    (Shi et al., arXiv:1609.05158): output row ``t`` belongs to phase ``r =
    (t+p) % s`` and reads conv row ``q = (t+p) // s``, so with ``J =
    ceil(k/s)`` the ``s*s`` phases are the ``s*s*C_out`` output channels of
    one ``J x J`` conv of the input padded by ``J-1`` before (and after, as
    far as the last phase reads), whose window offset ``m`` of phase ``r``
    uses kernel tap ``r + s*(J-1-m)``, zero past the kernel (which covers
    the gaps of ``stride > k``).  Each block lands each phase's channels
    straight into the strided ``out[:, :, t0::s, u0::s]`` view, dropping the
    conv row or column the phase does not own; no intermediate image is
    kept.  A ``J == 1`` kernel (the UNet 2x2/stride-2 up path) reads its
    input in place.  Bias and activation are applied to each block while it
    is cache hot.

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
    gemm:
        Optional scratch of :func:`conv_transpose_gemm_shape` (a fused
        chain's buffer cache); fully rewritten every call, so unlike ``out``
        it has no zero-border contract.
    """
    _check_fused_activation(activation, negative_slope)
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv_transpose_bn_act: input has {c_in} channels, weight expects {c_in_w}")
    s, p = stride, padding
    h_out = (h - 1) * s - 2 * p + kh
    w_out = (w - 1) * s - 2 * p + kw
    dtype = np.result_type(x, weight)
    shape = (n, c_out, h_out + 2 * output_padding, w_out + 2 * output_padding)
    out = _fused_output(out, shape, dtype, output_padding, "conv_transpose_bn_act")
    gemm = _gemm_scratch(
        gemm, conv_transpose_gemm_shape(x.shape, weight.shape, s, p), dtype, "conv_transpose_bn_act"
    )
    interior = out[:, :, output_padding : output_padding + h_out, output_padding : output_padding + w_out]
    x_shape, _, _ = _subpixel_geometry(x.shape, weight.shape, s, p)
    if x_shape != x.shape:
        copy = int(np.prod(x_shape))
        xp = gemm[:copy].reshape(x_shape)
        _pad_into(x, xp, -(-kh // s) - 1, -(-kw // s) - 1)
        x, gemm = xp, gemm[copy:]
    # Phase (rh, rw) owns output rows t0::s and columns u0::s, which read
    # conv rows and columns from (t0+p)//s and (u0+p)//s on.
    phases = [
        (interior[:, :, (rh - p) % s :: s, (rw - p) % s :: s], ((rh - p) % s + p) // s, ((rw - p) % s + p) // s)
        for rh in range(s)
        for rw in range(s)
    ]
    bias_col = None if bias is None else np.tile(np.asarray(bias), s * s).reshape(-1, 1)
    _conv_stride1_blocked(x, _subpixel_rows(weight, s), bias_col, phases, gemm, activation, negative_slope)
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
