"""Equivalence suite for the fused inference graph compiler.

The contract pinned here: for **every** model in the registry (and for every
chain geometry the models use — odd sizes, stride/padding corners, batch
sizes 1/2/4), the compiled fused graph produces the same outputs as the
unfused eval path to within 1e-12, while the training path of the source
model is left bit-for-bit untouched by compilation.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro import nn
from repro.core import DOINN, DOINNConfig
from repro.core.paths import VGGBlock
from repro.nn import (
    BatchNorm2d,
    CompiledChain,
    CompiledFourierUnit,
    Conv2d,
    FusedInferenceGraph,
    FusionFallbackWarning,
    Identity,
    LeakyReLU,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
    compile_model,
    eval_mode,
    no_grad,
)
from repro.nn import functional as F
from repro.nn.fusion import FusedConvBNAct, FusedConvTranspose, build_chain
from tests.nn import conv_reference

TOL = dict(rtol=1e-12, atol=1e-12)


def _eval_forward(model, x: np.ndarray) -> np.ndarray:
    with eval_mode(model), no_grad():
        return model(Tensor(x)).numpy()


def _randomize_bn(bn: BatchNorm2d, rng: np.random.Generator) -> None:
    """Non-trivial eval statistics so the fold is actually exercised."""
    bn.gamma.data = rng.uniform(0.5, 1.5, bn.num_features)
    bn.beta.data = rng.uniform(-0.5, 0.5, bn.num_features)
    bn.running_mean[...] = rng.uniform(-1.0, 1.0, bn.num_features)
    bn.running_var[...] = rng.uniform(0.25, 2.0, bn.num_features)


# --------------------------------------------------------------------- #
# conv_bn_act kernel vs the unfused three-pass path
# --------------------------------------------------------------------- #
# (kernel, stride, padding, activation) — stride/padding corners plus every
# activation the fused graphs emit.
_KERNEL_CONFIGS = [
    (3, 1, 1, "leaky_relu"),
    (3, 1, 0, "relu"),
    (4, 2, 1, "leaky_relu"),
    (3, 2, 0, "tanh"),
    (1, 1, 0, "identity"),
    (2, 2, 1, "relu"),
]


@pytest.mark.parametrize("k,stride,padding,activation", _KERNEL_CONFIGS)
@pytest.mark.parametrize("size", [(9, 9), (11, 7)])  # odd / rectangular sizes
def test_conv_bn_act_matches_unfused_passes(rng, k, stride, padding, activation, size):
    h, w = size
    x = rng.standard_normal((2, 3, h, w))
    conv = Conv2d(3, 5, k, stride=stride, padding=padding, rng=rng)
    bn = BatchNorm2d(5)
    _randomize_bn(bn, rng)
    act = {"leaky_relu": LeakyReLU(0.2), "relu": ReLU(), "tanh": Tanh(), "identity": None}[activation]

    op = FusedConvBNAct.from_modules(conv, bn, act)
    fused = F.conv_bn_act(
        x, op.weight, op.bias, stride=stride, padding=padding,
        activation=op.activation, negative_slope=op.negative_slope,
    )

    with eval_mode(bn), no_grad():
        ref = bn(F.conv2d(Tensor(x), conv.weight, conv.bias, stride=stride, padding=padding))
        if act is not None:
            ref = act(ref)
    np.testing.assert_allclose(fused, ref.numpy(), **TOL)


@pytest.mark.parametrize("batch", [1, 2, 4])
def test_conv_bn_act_without_bn_matches_conv2d(rng, batch):
    x = rng.standard_normal((batch, 2, 13, 13))
    conv = Conv2d(2, 4, 3, stride=1, padding=1, rng=rng)
    fused = F.conv_bn_act(x, conv.weight.data, conv.bias.data, stride=1, padding=1)
    with no_grad():
        ref = F.conv2d(Tensor(x), conv.weight, conv.bias, stride=1, padding=1).numpy()
    np.testing.assert_allclose(fused, ref, **TOL)


def test_conv_bn_act_output_padding_emits_zero_border(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    plain = F.conv_bn_act(x, w, None, stride=1, padding=1)
    padded = F.conv_bn_act(x, w, None, stride=1, padding=1, output_padding=2)
    assert padded.shape == (2, 4, 12, 12)
    np.testing.assert_array_equal(padded[:, :, 2:-2, 2:-2], plain)
    border = padded.copy()
    border[:, :, 2:-2, 2:-2] = 0.0
    assert not border.any()


def test_conv_bn_act_consumes_prepadded_input(rng):
    """input_is_padded skips the pad: op B reads op A's padded emission."""
    x = rng.standard_normal((1, 2, 10, 10))
    w1 = rng.standard_normal((3, 2, 3, 3))
    w2 = rng.standard_normal((5, 3, 3, 3))
    mid_padded = F.conv_bn_act(x, w1, None, stride=1, padding=1, output_padding=1)
    chained = F.conv_bn_act(mid_padded, w2, None, stride=1, padding=1, input_is_padded=True)
    mid = F.conv_bn_act(x, w1, None, stride=1, padding=1)
    ref = F.conv_bn_act(mid, w2, None, stride=1, padding=1)
    np.testing.assert_array_equal(chained, ref)


def test_conv_bn_act_validates_arguments(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    with pytest.raises(ValueError, match="activation"):
        F.conv_bn_act(x, w, activation="softmax")
    with pytest.raises(ValueError, match="negative_slope"):
        F.conv_bn_act(x, w, activation="leaky_relu", negative_slope=1.5)
    with pytest.raises(ValueError, match="channels"):
        F.conv_bn_act(x, rng.standard_normal((3, 4, 3, 3)))
    with pytest.raises(ValueError, match="out buffer"):
        F.conv_bn_act(x, w, padding=1, out=np.zeros((1, 3, 4, 4)))


# --------------------------------------------------------------------- #
# Stride-1 blocked kernel vs whole-image kernel-row and im2col GEMMs
# --------------------------------------------------------------------- #
def _bias_act(ref, b, activation, slope):
    ref = ref + b.reshape(-1, 1)
    if activation == "leaky_relu":
        ref = np.maximum(ref, ref * slope)
    elif activation == "tanh":
        ref = np.tanh(ref)
    return ref


def _im2col_reference(x, w, b, padding, activation, slope=0.2):
    """One whole-image ``w_mat @ im2col`` GEMM per sample, bias, activation."""
    c_out, _, kh, kw = w.shape
    cols = conv_reference.im2col(x, kh, kw, 1, padding)
    h_out = x.shape[2] + 2 * padding - kh + 1
    w_out = x.shape[3] + 2 * padding - kw + 1
    ref = _bias_act(np.matmul(w.reshape(c_out, -1), cols), b, activation, slope)
    return ref.reshape(x.shape[0], c_out, h_out, w_out)


def _kernel_row_reference(x, w, b, padding, activation, slope=0.2):
    """The blocked kernel's arithmetic over the whole image: for each kernel
    row ``a``, the ``(C_out, C_in*kw)`` matrix ``w[:, :, a, :]`` times that
    row's im2col rows, summed over ``a`` in order, then bias, activation."""
    c_out, c_in, kh, kw = w.shape
    n = x.shape[0]
    cols = conv_reference.im2col(x, kh, kw, 1, padding).reshape(n, c_in, kh, kw, -1)
    ref = None
    for a in range(kh):
        w_row = np.ascontiguousarray(w[:, :, a, :]).reshape(c_out, c_in * kw)
        term = np.matmul(w_row, cols[:, :, a].reshape(n, c_in * kw, -1))
        ref = term if ref is None else ref + term
    h_out = x.shape[2] + 2 * padding - kh + 1
    w_out = x.shape[3] + 2 * padding - kw + 1
    return _bias_act(ref, b, activation, slope).reshape(n, c_out, h_out, w_out)


# (kernel, padding, output size).  Output sizes whose H*W is a multiple of
# 64, so the reference GEMMs have no ragged column edge either: 8x8 fits in
# one block, 32x72 spans two with a ragged final block, 64x64 spans three.
@pytest.mark.parametrize("k,padding", [(3, 1), (3, 0), (5, 2), (5, 1), (4, 1), (4, 2)])
@pytest.mark.parametrize("out_size", [(8, 8), (32, 72), (64, 64)])
@pytest.mark.parametrize("input_is_padded", [False, True])
@pytest.mark.parametrize("output_padding", [0, 1])
def test_conv_bn_act_blocked_matches_im2col_bitwise(rng, k, padding, out_size, input_is_padded, output_padding):
    """Bit for bit against the kernel-row reference, and within 1e-12 of
    the single whole-image im2col GEMM."""
    h, w = (size - 2 * padding + k - 1 for size in out_size)
    x = rng.standard_normal((2, 3, h, w))
    weight = rng.standard_normal((5, 3, k, k))
    bias = rng.standard_normal(5)
    activation = "tanh" if k == 4 else "leaky_relu"
    ref = _kernel_row_reference(x, weight, bias, padding, activation)
    im2col_ref = _im2col_reference(x, weight, bias, padding, activation)
    if input_is_padded:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = F.conv_bn_act(
        x, weight, bias, stride=1, padding=padding, activation=activation, negative_slope=0.2,
        input_is_padded=input_is_padded, output_padding=output_padding,
    )
    op = output_padding
    assert out.shape == (2, 5, out_size[0] + 2 * op, out_size[1] + 2 * op)
    interior = out[:, :, op : op + out_size[0], op : op + out_size[1]]
    np.testing.assert_array_equal(interior, ref)
    assert np.max(np.abs(interior - im2col_ref)) <= 1e-12
    if op:
        border = out.copy()
        border[:, :, op:-op, op:-op] = 0.0
        assert not border.any()


def test_conv_bn_act_blocked_ignores_slack_tail_and_stale_scratch(rng):
    """Nothing but the input image reaches the output: NaNs just past the
    input buffer's end (slack an over-read would pick up), a NaN-filled
    scratch (the zero-padded tail columns of the final block), and a scratch
    reused from a different input all leave the result bit-identical, and
    the emitted border stays exactly zero."""
    c_in, c_out, size = 4, 6, 50            # span 2598: two blocks, ragged tail
    x = rng.standard_normal((2, c_in, size, size))
    weight = rng.standard_normal((c_out, c_in, 3, 3))
    bias = rng.standard_normal(c_out)
    kwargs = dict(stride=1, padding=1, activation="leaky_relu", negative_slope=0.2, output_padding=1)
    ref = F.conv_bn_act(x, weight, bias, **kwargs)

    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    slack = np.full(padded.size + 4096, np.nan)
    x_in = slack[: padded.size].reshape(padded.shape)
    x_in[...] = padded
    gemm = np.full(F.conv_gemm_shape((2, c_in, size + 2, size + 2), weight.shape), np.nan)
    out = np.zeros_like(ref)
    out[:, :, 1:-1, 1:-1] = np.nan
    got = F.conv_bn_act(x_in, weight, bias, input_is_padded=True, out=out, gemm=gemm, **kwargs)
    assert got is out
    np.testing.assert_array_equal(got, ref)

    other = rng.standard_normal(padded.shape)
    F.conv_bn_act(other, weight, bias, input_is_padded=True, gemm=gemm, **kwargs)
    again = F.conv_bn_act(x_in, weight, bias, input_is_padded=True, out=np.zeros_like(ref), gemm=gemm, **kwargs)
    np.testing.assert_array_equal(again, ref)
    border = again.copy()
    border[:, :, 1:-1, 1:-1] = 0.0
    assert not border.any()


def _aligned_kernel_rows(windows, w2, b, activation, slope):
    """Stride-1 kernel-row GEMMs over ``windows`` ``(N, C, H, W, J, J)``:
    for each window row ``a``, the ``(C_out, C*J)`` matrix ``w2[:, :, a, :]``
    times that row's patch columns, zero-padded to a multiple of 64 columns
    (the block kernel's GEMMs have no ragged edge), summed over ``a`` in
    order, then bias and activation."""
    n, c, h, w, jh, jw = windows.shape
    c_out = w2.shape[0]
    width = -(-(h * w) // 64) * 64
    ref = None
    for a in range(jh):
        pack = np.zeros((n, c * jw, width))
        pack[:, :, : h * w] = windows[:, :, :, :, a, :].transpose(0, 1, 4, 2, 3).reshape(n, c * jw, h * w)
        term = np.matmul(np.ascontiguousarray(w2[:, :, a, :]).reshape(c_out, c * jw), pack)
        ref = term if ref is None else ref + term
    return _bias_act(ref[:, :, : h * w], b, activation, slope).reshape(n, c_out, h, w)


# (kind, kernel, input size): a 3x3/stride-2 conv of an odd input, whose
# zero taps read the space-to-depth copy's tail row and column; DOINN's
# 4x4/stride-2 conv; the 4x4/stride-2 transposed conv, which reads a padded
# copy; and the 2x2/stride-2 one, which reads its input in place.
@pytest.mark.parametrize("kind,k,size", [("strided", 3, 31), ("strided", 4, 30), ("transposed", 4, 15), ("transposed", 2, 15)])
def test_strided_and_transposed_convs_ignore_stale_gemm_scratch(rng, kind, k, size):
    """The input copies live in the fully rewritten ``gemm`` scratch: a
    NaN-filled scratch leaves the result bit-identical, so every zero the
    copies need (a tail row or column, a padded border) is written, not
    left over."""
    x = rng.standard_normal((2, 3, size, size))
    bias = rng.standard_normal(4)
    if kind == "strided":
        weight = rng.standard_normal((4, 3, k, k))
        shape = F.conv_gemm_shape((2, 3, size + 2, size + 2), weight.shape, 2)
        run = lambda gemm: F.conv_bn_act(x, weight, bias, stride=2, padding=1, gemm=gemm)
    else:
        weight = rng.standard_normal((3, 4, k, k))
        padding = k // 4
        shape = F.conv_transpose_gemm_shape(x.shape, weight.shape, 2, padding)
        run = lambda gemm: F.conv_transpose_bn_act(x, weight, bias, stride=2, padding=padding, gemm=gemm)
    np.testing.assert_array_equal(run(np.full(shape, np.nan)), run(np.zeros(shape)))


def _space_to_depth_reference(x, w, b, stride, padding, slope=0.2):
    """The strided kernel's arithmetic, built tap by tap: the padded input
    moved to space-to-depth channels ``(c, ph, pw)``, the weight to ``w2[co,
    (c, ph, pw), a, b] = w[co, c, a*s+ph, b*s+pw]`` (zero past the kernel),
    and the ``J x J`` stride-1 conv of the two over the kept outputs."""
    s = stride
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c_in, hp, wp = xp.shape
    c_out, _, kh, kw = w.shape
    h_out, w_out = (hp - kh) // s + 1, (wp - kw) // s + 1
    j = -(-kh // s)
    x2 = np.zeros((n, c_in, s, s, -(-hp // s), -(-wp // s)))
    w2 = np.zeros((c_out, c_in, s, s, j, j))
    for ph in range(s):
        for pw in range(s):
            phase = xp[:, :, ph::s, pw::s]
            x2[:, :, ph, pw, : phase.shape[2], : phase.shape[3]] = phase
            for a in range(j):
                for bb in range(j):
                    if a * s + ph < kh and bb * s + pw < kw:
                        w2[:, :, ph, pw, a, bb] = w[:, :, a * s + ph, bb * s + pw]
    x2 = x2.reshape(n, c_in * s * s, *x2.shape[4:])
    windows = sliding_window_view(x2, (j, j), axis=(2, 3))[:, :, :h_out, :w_out]
    return _aligned_kernel_rows(windows, w2.reshape(c_out, c_in * s * s, j, j), b, "leaky_relu", slope)


def _assert_space_to_depth_matches(rng, k, c_in, size):
    """Bit for bit against the in-test space-to-depth reference, and within
    1e-12 of the single whole-image im2col GEMM."""
    x = rng.standard_normal((2, c_in, size, size))
    weight = rng.standard_normal((5, c_in, k, k))
    bias = rng.standard_normal(5)
    out = F.conv_bn_act(
        x, weight, bias, stride=2, padding=1, activation="leaky_relu", negative_slope=0.2
    )
    np.testing.assert_array_equal(out, _space_to_depth_reference(x, weight, bias, 2, 1))
    whole = np.matmul(weight.reshape(5, -1), conv_reference.im2col(x, k, k, 2, 1))
    whole = _bias_act(whole, bias, "leaky_relu", 0.2).reshape(out.shape)
    assert np.max(np.abs(out - whole)) <= 1e-12


# (C_in, output size) of DOINN's 4x4/stride-2/padding-1 conv: one block at
# 8x8; three blocks (the last ragged) at 64x64; one 1408-wide block at 37x37;
# eight blocks at 125x125.
@pytest.mark.parametrize("c_in,out_size", [(2, 8), (3, 64), (4, 37), (1, 125)])
def test_conv_bn_act_strided_bands_match_reference_bitwise(rng, c_in, out_size):
    _assert_space_to_depth_matches(rng, 4, c_in, 2 * out_size)


# (kernel, C_in, input size) at stride 2, padding 1: an odd input whose
# padded size is no multiple of the stride (a zero tail row and column), and
# a 3x3 kernel with zero taps.
@pytest.mark.parametrize("k,c_in,size", [(4, 3, 75), (3, 2, 31)])
def test_conv_bn_act_space_to_depth_matches_reference_bitwise(rng, k, c_in, size):
    _assert_space_to_depth_matches(rng, k, c_in, size)


def _subpixel_reference(x, w, b, stride, padding, slope=0.2):
    """The transposed kernel's arithmetic, built tap by tap: the input padded
    by ``J-1`` before and as far as the last phase reads after, the ``(rh,
    rw, co)`` output channel's window offset ``(m, n)`` holding tap ``(rh +
    s*(J-1-m), rw + s*(J-1-n))`` (zero past the kernel), the stride-1 conv
    of the two, and output ``(t, u)`` read from phase ``((t+p) % s, (u+p) %
    s)`` at conv position ``((t+p) // s, (u+p) // s)``."""
    s, p = stride, padding
    n, c_in, h, wd = x.shape
    _, c_out, kh, kw = w.shape
    h_out, w_out = (h - 1) * s - 2 * p + kh, (wd - 1) * s - 2 * p + kw
    j = -(-kh // s)
    rows, cols = (h_out - 1 + p) // s + 1, (w_out - 1 + p) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (j - 1, max(0, rows - h)), (j - 1, max(0, cols - wd))))
    w2 = np.zeros((s, s, c_out, c_in, j, j))
    for rh in range(s):
        for rw in range(s):
            for m in range(j):
                for mm in range(j):
                    a, bb = rh + s * (j - 1 - m), rw + s * (j - 1 - mm)
                    if a < kh and bb < kw:
                        w2[rh, rw, :, :, m, mm] = w[:, :, a, bb].T
    windows = sliding_window_view(xp, (j, j), axis=(2, 3))[:, :, :rows, :cols]
    conv = _aligned_kernel_rows(windows, w2.reshape(-1, c_in, j, j), np.tile(b, s * s), "leaky_relu", slope)
    t, u = np.arange(h_out) + p, np.arange(w_out) + p
    phases = conv.reshape(n, s, s, c_out, rows, cols).transpose(0, 3, 1, 4, 2, 5)
    return phases[:, :, (t % s)[:, None], (t // s)[:, None], (u % s)[None, :], (u // s)[None, :]]


def _assert_subpixel_matches(rng, k, stride, padding, c_in, c_out, size):
    """Bit for bit against the in-test sub-pixel reference, and within
    1e-12 of the reference ``col2im`` transposed conv."""
    x = rng.standard_normal((2, c_in, size, size))
    weight = rng.standard_normal((c_in, c_out, k, k))
    bias = rng.standard_normal(c_out)
    out = F.conv_transpose_bn_act(
        x, weight, bias, stride=stride, padding=padding, activation="leaky_relu", negative_slope=0.2
    )
    np.testing.assert_array_equal(out, _subpixel_reference(x, weight, bias, stride, padding))
    with no_grad():
        plain = conv_reference.conv_transpose2d(
            Tensor(x), Tensor(weight), Tensor(bias), stride=stride, padding=padding
        ).numpy()
    assert np.max(np.abs(out - np.maximum(plain, 0.2 * plain))) <= 1e-12


# (C_in, C_out, input size) of DOINN's 4x4/stride-2/padding-1 dconv: one
# block at 8x8, three at 64x64 and six (the last ragged) at 100x100.
@pytest.mark.parametrize("c_in,c_out,size", [(3, 5, 8), (4, 5, 64), (2, 3, 100)])
def test_conv_transpose_bn_act_channel_groups_match_reference_bitwise(rng, c_in, c_out, size):
    _assert_subpixel_matches(rng, 4, 2, 1, c_in, c_out, size)


# (kernel, stride, padding, C_in, C_out, input size): the UNet 2x2/stride-2
# up path (J == 1, read in place); a gapped stride > k; and a stride-1
# transposed conv (one phase, a flipped 3x3 kernel).
@pytest.mark.parametrize(
    "k,stride,padding,c_in,c_out,size", [(2, 2, 0, 4, 3, 33), (2, 3, 0, 3, 2, 9), (3, 1, 1, 3, 4, 20)]
)
def test_conv_transpose_bn_act_subpixel_matches_reference_bitwise(rng, k, stride, padding, c_in, c_out, size):
    _assert_subpixel_matches(rng, k, stride, padding, c_in, c_out, size)


def test_float32_lane_blocked_refine_tail_within_calibrated_tolerance(tiny_model_factory, rng):
    """The float32 lane runs the same blocked kernel in single precision: at
    64 px the DOINN refine tail spans several blocks and stays within the
    calibrated lane tolerance of the float64 graph."""
    model = tiny_model_factory("doinn", image_size=64)
    x = rng.random((2, 1, 64, 64))
    ref = compile_model(model)
    g32 = compile_model(model, backend="float32")
    with no_grad():
        delta = np.max(np.abs(g32(Tensor(x)).numpy() - ref(Tensor(x)).numpy()))
    assert delta <= FLOAT32_MAX_ABS_DELTA["doinn"], f"float32 delta {delta:.3e}"


# --------------------------------------------------------------------- #
# conv_transpose_bn_act kernel vs the unfused path
# --------------------------------------------------------------------- #
# (kernel, stride, padding, activation): the DOINN dconv geometry (4/2/1,
# overlapping windows), the UNet up-path geometry (2/2/0, non-overlapping
# fast path), stride-1 overlap, a gapped stride > k corner, and a crop with
# non-overlapping windows.
_DECONV_CONFIGS = [
    (4, 2, 1, "leaky_relu"),
    (2, 2, 0, "identity"),
    (3, 1, 1, "relu"),
    (2, 3, 0, "tanh"),
    (2, 2, 1, "relu"),
]


@pytest.mark.parametrize("k,stride,padding,activation", _DECONV_CONFIGS)
@pytest.mark.parametrize("size", [(8, 8), (7, 9)])  # even / odd-rectangular
def test_conv_transpose_bn_act_matches_unfused_passes(rng, k, stride, padding, activation, size):
    h, w = size
    x = rng.standard_normal((2, 3, h, w))
    deconv = nn.ConvTranspose2d(3, 5, k, stride=stride, padding=padding, rng=rng)
    bn = BatchNorm2d(5)
    _randomize_bn(bn, rng)
    act = {"leaky_relu": LeakyReLU(0.2), "relu": ReLU(), "tanh": Tanh(), "identity": None}[activation]

    op = FusedConvTranspose.from_modules(deconv, bn, act)
    fused = F.conv_transpose_bn_act(
        x, op.weight, op.bias, stride=stride, padding=padding,
        activation=op.activation, negative_slope=op.negative_slope,
    )

    with eval_mode(bn), no_grad():
        ref = bn(F.conv_transpose2d(Tensor(x), deconv.weight, deconv.bias, stride=stride, padding=padding))
        if act is not None:
            ref = act(ref)
    np.testing.assert_allclose(fused, ref.numpy(), **TOL)


@pytest.mark.parametrize("batch", [1, 2, 4])
def test_conv_transpose_bn_act_without_bn_matches_conv_transpose2d(rng, batch):
    x = rng.standard_normal((batch, 3, 9, 9))
    deconv = nn.ConvTranspose2d(3, 2, 4, stride=2, padding=1, rng=rng)
    fused = F.conv_transpose_bn_act(x, deconv.weight.data, deconv.bias.data, stride=2, padding=1)
    with no_grad():
        ref = F.conv_transpose2d(Tensor(x), deconv.weight, deconv.bias, stride=2, padding=1).numpy()
    np.testing.assert_allclose(fused, ref, **TOL)


@pytest.mark.parametrize("k,stride,padding", [(4, 2, 1), (2, 2, 0)])
def test_conv_transpose_bn_act_output_padding_emits_zero_border(rng, k, stride, padding):
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((3, 4, k, k))
    plain = F.conv_transpose_bn_act(x, w, None, stride=stride, padding=padding)
    padded = F.conv_transpose_bn_act(x, w, None, stride=stride, padding=padding, output_padding=2)
    assert padded.shape == (2, 4, plain.shape[2] + 4, plain.shape[3] + 4)
    np.testing.assert_array_equal(padded[:, :, 2:-2, 2:-2], plain)
    border = padded.copy()
    border[:, :, 2:-2, 2:-2] = 0.0
    assert not border.any()


def test_conv_transpose_bn_act_feeds_input_is_padded_conv(rng):
    """The crop-fold handshake: a deconv's bordered emission is consumed
    pad-free by the following conv exactly as a separate crop + pad would be."""
    x = rng.standard_normal((2, 3, 8, 8))
    wd = rng.standard_normal((3, 4, 4, 4))
    wc = rng.standard_normal((5, 4, 3, 3))
    mid_padded = F.conv_transpose_bn_act(x, wd, None, stride=2, padding=1, output_padding=1)
    chained = F.conv_bn_act(mid_padded, wc, None, stride=1, padding=1, input_is_padded=True)
    mid = F.conv_transpose_bn_act(x, wd, None, stride=2, padding=1)
    ref = F.conv_bn_act(mid, wc, None, stride=1, padding=1)
    np.testing.assert_array_equal(chained, ref)


def test_conv_transpose_bn_act_validates_arguments(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((2, 3, 4, 4))
    with pytest.raises(ValueError, match="activation"):
        F.conv_transpose_bn_act(x, w, activation="softmax")
    with pytest.raises(ValueError, match="negative_slope"):
        F.conv_transpose_bn_act(x, w, activation="leaky_relu", negative_slope=1.5)
    with pytest.raises(ValueError, match="channels"):
        F.conv_transpose_bn_act(x, rng.standard_normal((3, 2, 4, 4)))
    with pytest.raises(ValueError, match="out buffer"):
        F.conv_transpose_bn_act(x, w, stride=2, padding=1, out=np.zeros((1, 3, 4, 4)))


def test_fused_conv_transpose_folds_bn_along_output_axis(rng):
    """The transposed weight layout is (C_in, C_out, kh, kw): the fold must
    scale axis 1, not axis 0 (they differ whenever C_in != C_out)."""
    deconv = nn.ConvTranspose2d(3, 5, 2, stride=2, rng=rng)
    bn = BatchNorm2d(5)
    _randomize_bn(bn, rng)
    op = FusedConvTranspose.from_modules(deconv, bn, None)
    scale, shift = bn.fold_inference_affine()
    np.testing.assert_allclose(op.weight, deconv.weight.data * scale[None, :, None, None], **TOL)
    np.testing.assert_allclose(op.bias, deconv.bias.data * scale + shift, **TOL)
    with pytest.raises(ValueError, match="cannot fold"):
        FusedConvTranspose.from_modules(deconv, BatchNorm2d(4), None)
    with pytest.raises(TypeError, match="ConvTranspose2d"):
        FusedConvTranspose.from_modules(Conv2d(3, 5, 3, rng=rng), None, None)


def test_fold_inference_affine_matches_eval_batchnorm(rng):
    bn = BatchNorm2d(4)
    _randomize_bn(bn, rng)
    x = rng.standard_normal((2, 4, 5, 5))
    scale, shift = bn.fold_inference_affine()
    with eval_mode(bn), no_grad():
        ref = bn(Tensor(x)).numpy()
    np.testing.assert_allclose(
        x * scale.reshape(1, 4, 1, 1) + shift.reshape(1, 4, 1, 1), ref, **TOL
    )


# --------------------------------------------------------------------- #
# Fused chains (pad-once buffer cache)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("size", [(8, 8), (9, 13), (17, 5)])
@pytest.mark.parametrize("batch", [1, 2, 4])
def test_vgg_chain_matches_block(rng, size, batch):
    block = VGGBlock(2, 4, rng=rng)
    _randomize_bn(block.bn1, rng)
    _randomize_bn(block.bn2, rng)
    x = rng.standard_normal((batch, 2, *size))
    chain = build_chain(block.fusible_chain(), label="vgg")
    np.testing.assert_allclose(chain.run(x), _eval_forward(block, x), **TOL)


def test_fused_chain_scratch_buffers_are_reused(rng):
    block = VGGBlock(2, 3, rng=rng)
    chain = build_chain(block.fusible_chain())
    x = rng.standard_normal((2, 2, 8, 8))
    first = chain.run(x)
    buffers = {key: id(buf) for key, buf in chain._scratch.items()}
    assert buffers  # the pad-once cache is in use
    second = chain.run(x)
    assert {key: id(buf) for key, buf in chain._scratch.items()} == buffers
    np.testing.assert_array_equal(first, second)
    assert first is not second  # the caller-facing output is always fresh


def test_fused_chain_scratch_cache_is_bounded(rng):
    """Many distinct geometries cannot grow the buffer cache without bound."""
    block = VGGBlock(2, 3, rng=rng)
    chain = build_chain(block.fusible_chain())
    for size in range(8, 8 + chain.MAX_CACHED_BUFFERS):
        x = rng.standard_normal((1, 2, size, size))
        np.testing.assert_allclose(chain.run(x), _eval_forward(block, x), **TOL)
    assert len(chain._scratch) <= chain.MAX_CACHED_BUFFERS
    # And the reset does not corrupt results for a geometry seen before.
    x = rng.standard_normal((1, 2, 8, 8))
    np.testing.assert_allclose(chain.run(x), _eval_forward(block, x), **TOL)


def test_fused_chain_pickles_without_scratch(rng):
    block = VGGBlock(2, 3, rng=rng)
    chain = build_chain(block.fusible_chain())
    x = rng.standard_normal((1, 2, 8, 8))
    expected = chain.run(x)
    clone = pickle.loads(pickle.dumps(chain))
    assert clone._scratch == {}
    np.testing.assert_array_equal(clone.run(x), expected)


# --------------------------------------------------------------------- #
# Mixed chains: transposed convolutions composed with convolutions
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("batch", [1, 2, 4])
def test_deconv_vgg_chain_matches_modules(rng, batch):
    """The DOINN decoder-stage shape: dconv (4x4 s2 p1) -> VGG block."""
    deconv = nn.ConvTranspose2d(6, 4, 4, stride=2, padding=1, rng=rng)
    block = VGGBlock(4, 4, rng=rng)
    _randomize_bn(block.bn1, rng)
    _randomize_bn(block.bn2, rng)
    chain = build_chain(
        [(deconv, None, None), (block.conv1, block.bn1, block.act), (block.conv2, block.bn2, block.act)],
        label="dconv+vgg",
    )
    x = rng.standard_normal((batch, 6, 9, 7))
    with eval_mode(block), no_grad():
        ref = block(deconv(Tensor(x))).numpy()
    np.testing.assert_allclose(chain.run(x), ref, **TOL)
    # Run twice: the GEMM scratch and bordered buffers are reused.
    np.testing.assert_allclose(chain.run(x), ref, **TOL)


def test_conv_conv_deconv_chain_matches_modules(rng):
    """The UNet bottleneck->first-up shape: conv -> conv -> dconv (2x2 s2)."""
    conv1 = Conv2d(3, 4, 3, padding=1, rng=rng)
    bn1 = BatchNorm2d(4)
    conv2 = Conv2d(4, 4, 3, padding=1, rng=rng)
    bn2 = BatchNorm2d(4)
    relu = ReLU()
    deconv = nn.ConvTranspose2d(4, 2, 2, stride=2, rng=rng)
    _randomize_bn(bn1, rng)
    _randomize_bn(bn2, rng)
    chain = build_chain(
        [(conv1, bn1, relu), (conv2, bn2, relu), (deconv, None, None)], label="bottleneck+up"
    )
    x = rng.standard_normal((2, 3, 8, 8))
    with eval_mode(bn1), eval_mode(bn2), no_grad():
        mid = relu(bn2(conv2(relu(bn1(conv1(Tensor(x)))))))
        ref = deconv(mid).numpy()
    np.testing.assert_allclose(chain.run(x), ref, **TOL)


def test_deconv_chain_with_folded_bn_and_activation(rng):
    """A dconv -> BN -> LeakyReLU step folds and chains like a conv step."""
    deconv = nn.ConvTranspose2d(3, 4, 4, stride=2, padding=1, rng=rng)
    bn = BatchNorm2d(4)
    act = LeakyReLU(0.2)
    _randomize_bn(bn, rng)
    out_conv = Conv2d(4, 1, 3, padding=1, rng=rng)
    chain = build_chain([(deconv, bn, act), (out_conv, None, None)])
    x = rng.standard_normal((2, 3, 8, 8))
    with eval_mode(bn), no_grad():
        ref = out_conv(act(bn(deconv(Tensor(x))))).numpy()
    np.testing.assert_allclose(chain.run(x), ref, **TOL)


def test_fused_chain_alternating_batch_sizes(rng):
    """Satellite regression: one chain serving interleaved batch sizes (the
    ragged final shards of streamed tile sweeps) must never cross-contaminate
    its cached buffers — every call matches a fresh-chain run of the same
    batch, whatever N came before it."""
    deconv = nn.ConvTranspose2d(3, 4, 4, stride=2, padding=1, rng=rng)
    block = VGGBlock(4, 4, rng=rng)
    _randomize_bn(block.bn1, rng)
    _randomize_bn(block.bn2, rng)
    steps = [(deconv, None, None), (block.conv1, block.bn1, block.act), (block.conv2, block.bn2, block.act)]
    chain = build_chain(steps)
    batches = {n: rng.standard_normal((n, 3, 8, 8)) for n in (4, 1, 3, 2)}
    expected = {n: build_chain(steps).run(x) for n, x in batches.items()}
    for n in (4, 1, 3, 4, 2, 1, 3, 4):
        np.testing.assert_array_equal(chain.run(batches[n]), expected[n], err_msg=f"N={n}")


def test_fused_chain_scratch_keys_are_namespaced(rng):
    """Bordered output buffers and the (fully-rewritten, borderless) GEMM
    scratch must live under distinct cache keys."""
    deconv = nn.ConvTranspose2d(2, 3, 4, stride=2, padding=1, rng=rng)
    conv = Conv2d(3, 1, 3, padding=1, rng=rng)
    chain = build_chain([(deconv, None, None), (conv, None, None)])
    chain.run(rng.standard_normal((1, 2, 8, 8)))
    # No entry pad (a deconv consumes borderless input): the deconv's bordered
    # output buffer and the one GEMM scratch both ops share (the deconv's
    # padded input copy and its blocks, then the conv's blocks), nothing
    # else — in separate families.
    families = {key[0] for key in chain._scratch}
    assert families == {"out", "gemm"}


def test_sequential_fusion_merges_conv_runs(rng):
    net = Sequential(
        Conv2d(1, 3, 3, padding=1, rng=rng),
        BatchNorm2d(3),
        LeakyReLU(0.2),
        Conv2d(3, 3, 3, padding=1, rng=rng),
        BatchNorm2d(3),
        ReLU(),
        Conv2d(3, 1, 1, rng=rng),
        Tanh(),
    )
    for module in net:
        if isinstance(module, BatchNorm2d):
            _randomize_bn(module, rng)
    x = rng.standard_normal((2, 1, 11, 11))
    graph = compile_model(net)
    # The whole Sequential collapses to one fused chain of three conv ops.
    assert len(graph.chains) == 1
    assert graph.num_fused_ops == 3
    compiled_children = list(graph.module)
    assert isinstance(compiled_children[0], CompiledChain)
    assert all(isinstance(m, Identity) for m in compiled_children[1:])
    with no_grad():
        np.testing.assert_allclose(graph(Tensor(x)).numpy(), _eval_forward(net, x), **TOL)


def test_sequential_fusion_merges_deconv_runs(rng):
    """A Sequential mixing convs and transposed convs fuses as one chain."""
    net = Sequential(
        Conv2d(1, 3, 3, padding=1, rng=rng),
        BatchNorm2d(3),
        LeakyReLU(0.2),
        nn.ConvTranspose2d(3, 3, 2, stride=2, rng=rng),
        ReLU(),
        Conv2d(3, 1, 3, padding=1, rng=rng),
        Tanh(),
    )
    for module in net:
        if isinstance(module, BatchNorm2d):
            _randomize_bn(module, rng)
    x = rng.standard_normal((2, 1, 9, 9))
    graph = compile_model(net)
    assert len(graph.chains) == 1
    assert graph.num_fused_ops == 3
    assert any(isinstance(op, FusedConvTranspose) for op in graph.chains[0].ops)
    with no_grad():
        np.testing.assert_allclose(graph(Tensor(x)).numpy(), _eval_forward(net, x), **TOL)


def test_sequential_fusion_stops_at_unfusible_modules(rng):
    net = Sequential(
        Conv2d(1, 2, 3, padding=1, rng=rng),
        Sigmoid(),  # no fusion metadata: breaks the run
        Conv2d(2, 1, 3, padding=1, rng=rng),
    )
    x = rng.standard_normal((1, 1, 9, 9))
    graph = compile_model(net)
    assert len(graph.chains) == 2  # two single-conv chains around the sigmoid
    assert isinstance(list(graph.module)[1], Sigmoid)
    with no_grad():
        np.testing.assert_allclose(graph(Tensor(x)).numpy(), _eval_forward(net, x), **TOL)


# --------------------------------------------------------------------- #
# Whole-model compilation: every registry model
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("batch", [1, 2, 4])
def test_compiled_model_matches_eval_forward(zoo_model, rng, batch):
    name, model = zoo_model
    x = rng.random((batch, 1, 32, 32))
    graph = compile_model(model)
    with no_grad():
        fused = graph(Tensor(x)).numpy()
    np.testing.assert_allclose(fused, _eval_forward(model, x), **TOL)


def test_compiled_model_declares_fused_chains(zoo_model):
    name, model = zoo_model
    graph = compile_model(model)
    assert isinstance(graph, FusedInferenceGraph)
    assert graph.source_name == type(model).__name__
    assert len(graph.chains) > 0, f"{name} declared no fusible chains"
    assert graph.num_fused_ops >= len(graph.chains)


def test_compile_is_idempotent(tiny_model_factory):
    graph = compile_model(tiny_model_factory("unet"))
    assert compile_model(graph) is graph
    with pytest.raises(TypeError):
        compile_model(object())


@pytest.mark.parametrize("row", [1, 2, 3, 4])
def test_doinn_ablation_rows_compile(rng, row):
    """The Table 3 ablations cover use_lp/use_skips/use_refine corners."""
    model = DOINN(DOINNConfig(gp_channels=4, lp_base_channels=2, modes=2).ablation(row))
    x = rng.random((2, 1, 32, 32))
    graph = compile_model(model)
    with no_grad():
        np.testing.assert_allclose(graph(Tensor(x)).numpy(), _eval_forward(model, x), **TOL)


def test_compiled_graph_proxies_doinn_stitching_hooks(tiny_model_factory):
    graph = compile_model(tiny_model_factory("doinn"))
    assert graph.config.pool_factor == 8
    assert graph.global_perception is graph.module.global_perception
    assert graph.reconstruction is graph.module.reconstruction
    unet_graph = compile_model(tiny_model_factory("unet"))
    assert not hasattr(unet_graph, "global_perception")


def test_compiled_model_pickle_round_trip(tiny_model_factory, rng):
    graph = compile_model(tiny_model_factory("damo-dls"))
    x = rng.random((2, 1, 32, 32))
    clone = pickle.loads(pickle.dumps(graph))
    with no_grad():
        np.testing.assert_array_equal(clone(Tensor(x)).numpy(), graph(Tensor(x)).numpy())


def test_pickled_graph_carries_no_compute_team(tiny_model_factory, rng, compute_threads):
    """The compute team is per process (its threads cannot cross a process
    boundary): a graph that ran on a team pickles without it, and its
    clone runs on the team of whichever process unpickles it."""
    compute_threads(2)
    graph = compile_model(tiny_model_factory("doinn"))
    x = rng.random((2, 1, 32, 32))
    with no_grad():
        expected = graph(Tensor(x)).numpy()
    payload = pickle.dumps(graph)
    assert b"ComputeTeam" not in payload and b"repro-team" not in payload
    compute_threads(1)
    with no_grad():
        np.testing.assert_array_equal(pickle.loads(payload)(Tensor(x)).numpy(), expected)


# --------------------------------------------------------------------- #
# Inference-only guards
# --------------------------------------------------------------------- #
def test_compiled_graph_rejects_training_mode(tiny_model_factory, rng):
    graph = compile_model(tiny_model_factory("unet"))
    graph.train()
    with pytest.raises(RuntimeError, match="eval mode"), no_grad():
        graph(Tensor(rng.random((1, 1, 32, 32))))
    graph.eval()
    with no_grad():
        graph(Tensor(rng.random((1, 1, 32, 32))))  # recovers after .eval()


def test_compiled_graph_rejects_autograd_inputs(tiny_model_factory, rng):
    graph = compile_model(tiny_model_factory("fno"))
    x = Tensor(rng.random((1, 1, 32, 32)), requires_grad=True)
    with pytest.raises(RuntimeError, match="autograd"):
        graph(x)
    with no_grad():
        graph(x)  # fine once gradient tracking is off


# --------------------------------------------------------------------- #
# The source model is untouched (gradient pins, state-dict round trips)
# --------------------------------------------------------------------- #
def test_compile_does_not_mutate_source_model(zoo_model, rng):
    name, model = zoo_model
    x = rng.random((2, 1, 32, 32))
    before_state = model.state_dict()
    before_out = _eval_forward(model, x)
    before_training = [m.training for m in model.modules()]
    compile_model(model)
    assert [m.training for m in model.modules()] == before_training
    after_state = model.state_dict()
    assert before_state.keys() == after_state.keys()
    for key in before_state:
        np.testing.assert_array_equal(before_state[key], after_state[key])
    np.testing.assert_array_equal(_eval_forward(model, x), before_out)


def test_training_gradients_unchanged_by_compile(zoo_model, tiny_model_factory, rng):
    """Gradient pin: compiling a model must not alter its training path."""
    name, model = zoo_model
    twin = tiny_model_factory(name)  # bit-identical twin (same seed)
    compile_model(model)
    x = rng.random((2, 1, 32, 32))
    grads = {}
    for tag, net in (("compiled-source", model), ("twin", twin)):
        net.train()
        out = net(Tensor(x.copy()))
        out.backward(np.ones(out.shape))
        grads[tag] = {p_name: p.grad.copy() for p_name, p in net.named_parameters()}
        net.zero_grad()
    assert grads["compiled-source"].keys() == grads["twin"].keys()
    for p_name, grad in grads["compiled-source"].items():
        np.testing.assert_array_equal(grad, grads["twin"][p_name], err_msg=p_name)


@pytest.mark.parametrize("name", ["doinn", "unet"])
def test_deconv_training_gradients_unchanged_by_compile(name, tiny_model_factory, rng):
    """Gradient pin on the transposed convs specifically: compiling a model
    whose decoder is now fused must leave the ConvTranspose2d parameters'
    training gradients bit-for-bit identical to an untouched twin's."""
    model = tiny_model_factory(name)
    twin = tiny_model_factory(name)
    compile_model(model)
    x = rng.random((2, 1, 32, 32))
    grads = {}
    for tag, net in (("compiled-source", model), ("twin", twin)):
        net.train()
        out = net(Tensor(x.copy()))
        out.backward(np.ones(out.shape))
        grads[tag] = {
            p_name: p.grad.copy()
            for p_name, p in net.named_parameters()
            if "dconv" in p_name or p_name.startswith("up")
        }
        net.zero_grad()
    assert grads["compiled-source"], f"{name} exposes no transposed-conv parameters"
    assert grads["compiled-source"].keys() == grads["twin"].keys()
    for p_name, grad in grads["compiled-source"].items():
        np.testing.assert_array_equal(grad, grads["twin"][p_name], err_msg=p_name)


def test_bn_buffers_survive_compile_and_state_dict_round_trip(tiny_model_factory, rng):
    """Satellite: running statistics are intact through compile -> state_dict
    -> load_state_dict, and a recompile of the restored weights matches."""
    model = tiny_model_factory("unet")
    model.train()
    for _ in range(3):  # move the running statistics off their init values
        model(Tensor(rng.random((2, 1, 32, 32))))
    state = model.state_dict()
    graph = compile_model(model)

    restored = tiny_model_factory("unet")
    restored.load_state_dict(state)
    for (name_a, buf_a), (name_b, buf_b) in zip(model.named_buffers(), restored.named_buffers()):
        assert name_a == name_b
        np.testing.assert_array_equal(buf_a, buf_b, err_msg=name_a)

    x = rng.random((2, 1, 32, 32))
    with no_grad():
        np.testing.assert_array_equal(
            compile_model(restored)(Tensor(x)).numpy(), graph(Tensor(x)).numpy()
        )


# --------------------------------------------------------------------- #
# Broken-chain fallbacks: warned, recorded, never silent (PR 4 satellite)
# --------------------------------------------------------------------- #
class _BrokenChainBlock(nn.Module):
    """Declares a fusible chain that an unfusible activation breaks mid-chain."""

    def __init__(self, rng=None) -> None:
        super().__init__()
        self.conv = Conv2d(1, 4, 3, padding=1, rng=rng)
        self.dconv = nn.ConvTranspose2d(4, 4, 2, stride=2, rng=rng)
        self.act = Sigmoid()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.dconv(self.conv(x)))

    def fusible_chain(self):
        # Deliberately invalid: Sigmoid declares no fusion_activation(), so
        # the (otherwise fusible) conv -> dconv chain cannot compile.
        return [(self.conv, None, None), (self.dconv, None, self.act)]


class _HostModel(nn.Module):
    """A parent whose child declares the broken chain, plus a healthy block."""

    def __init__(self, rng=None) -> None:
        super().__init__()
        self.up = _BrokenChainBlock(rng=rng)
        self.vgg = VGGBlock(4, 4, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.vgg(self.up(x))


def test_broken_chain_falls_back_with_structured_warning(rng):
    model = _HostModel(rng=rng)
    for bn in (model.vgg.bn1, model.vgg.bn2):
        _randomize_bn(bn, rng)
    with pytest.warns(FusionFallbackWarning) as record:
        graph = compile_model(model)
    warning = record[0].message
    # The warning is structured: it names the module path inside the tree
    # and carries the chain-construction failure as the reason.
    assert warning.module_path == "_HostModel.up"
    assert "fusion_activation" in warning.reason
    assert graph.fallbacks == [(warning.module_path, warning.reason)]
    # The broken declaration degraded to unfused execution — not silence,
    # not a crash — while the healthy sibling chain still compiled.
    assert isinstance(graph.module.up, _BrokenChainBlock)
    assert isinstance(graph.module.vgg, CompiledChain)
    x = rng.random((2, 1, 16, 16))
    with no_grad():
        np.testing.assert_allclose(
            graph(Tensor(x)).numpy(), _eval_forward(model, x), **TOL
        )


def test_broken_method_rewrite_keeps_unfused_method(rng):
    class _BrokenRewrite(nn.Module):
        def __init__(self) -> None:
            super().__init__()
            self.dconv = nn.ConvTranspose2d(1, 2, 2, stride=2, rng=rng)
            self.sigmoid = Sigmoid()

        def forward(self, x: Tensor) -> Tensor:
            return self._head(x)

        def _head(self, x: Tensor) -> Tensor:
            return self.sigmoid(self.dconv(x))

        def fusion_rewrites(self):
            # Sigmoid has no fusion metadata, so this declaration is broken.
            return {"_head": [(self.dconv, None, self.sigmoid)]}

    model = _BrokenRewrite()
    with pytest.warns(FusionFallbackWarning) as record:
        graph = compile_model(model)
    assert record[0].message.module_path == "_BrokenRewrite._head"
    assert len(graph.fallbacks) == 1
    x = rng.random((1, 1, 8, 8))
    with no_grad():
        np.testing.assert_allclose(graph(Tensor(x)).numpy(), _eval_forward(model, x), **TOL)


def test_transposed_conv_up_paths_compile_without_fallback(zoo_model):
    """Contract flip (PR 5): the transposed convs are no longer exempt-by-
    omission — DOINN's ``dconvN -> vggN`` stages and the UNet up path are
    *declared* fusible chains now, so compiling the whole zoo must raise no
    fallback warning, record no fallback, and actually emit fused
    transposed-conv ops for the models that have them."""
    name, model = zoo_model
    with warnings.catch_warnings():
        warnings.simplefilter("error", FusionFallbackWarning)
        graph = compile_model(model)
    assert graph.fallbacks == []
    deconv_ops = sum(
        isinstance(op, FusedConvTranspose) for chain in graph.chains for op in chain.ops
    )
    source_deconvs = sum(isinstance(m, nn.ConvTranspose2d) for m in model.modules())
    assert deconv_ops == source_deconvs, (
        f"{name}: {source_deconvs} transposed convs in the source model but only "
        f"{deconv_ops} fused transposed-conv ops in the compiled graph"
    )
    if name in ("doinn", "unet"):
        assert deconv_ops > 0


# --------------------------------------------------------------------- #
# Fused-path allocation / cache bugfixes (PR 8 satellites)
# --------------------------------------------------------------------- #
def test_conv_bn_act_routes_bordered_gemm_through_scratch(rng, compute_threads):
    """Bugfix pin: the stride-1 kernel must pack its kernel rows and land its
    GEMM results in the caller-provided flat ``gemm`` block scratch instead
    of allocating per sample per call.  A NaN canary proves the buffer was
    actually consumed: afterwards no NaN is left, the pack holds the last
    sample's ``kw`` column shifts with the zero-padded tail past its halo,
    the result rows hold that sample's output at padded-width positions
    (the GEMM target), and the accumulator its last kernel row's term.  On a
    team of one the scratch is one member's slice and the units run in
    order, so the last unit's contents are the ones left behind."""
    compute_threads(1)
    x = rng.standard_normal((3, 2, 8, 8))
    w = rng.standard_normal((4, 2, 3, 3))
    plain = F.conv_bn_act(x, w, None, stride=1, padding=1)
    shape = F.conv_gemm_shape((3, 2, 10, 10), w.shape)
    # span 7*10 + 8 = 78, rounded up to a 128-wide block; halo 2*10.
    pack_len, width = 128 + 20, 128
    assert shape == (2 * 3 * pack_len + 2 * 4 * width,)
    gemm = np.full(shape, np.nan)
    padded = F.conv_bn_act(x, w, None, stride=1, padding=1, output_padding=1, gemm=gemm)
    np.testing.assert_array_equal(padded[:, :, 1:-1, 1:-1], plain)
    assert not np.isnan(gemm).any()
    pack = gemm[: 6 * pack_len].reshape(2, 3, pack_len)
    src = np.pad(x[-1], ((0, 0), (1, 1), (1, 1))).reshape(2, 100)
    for b in range(3):
        np.testing.assert_array_equal(pack[:, b, :98], src[:, b : b + 98])
    assert not pack[:, :, 98:].any()
    result = gemm[6 * pack_len :][: 4 * width].reshape(4, width)
    positions = (np.arange(8)[:, None] * 10 + np.arange(8)).ravel()
    np.testing.assert_array_equal(result[:, positions].reshape(4, 8, 8), plain[-1])
    acc = gemm[6 * pack_len + 4 * width :].reshape(4, width)
    last_row = np.ascontiguousarray(w[:, :, 2, :]).reshape(4, 6)
    np.testing.assert_array_equal(acc, last_row @ pack.reshape(6, pack_len)[:, 20:])
    with pytest.raises(ValueError, match="gemm buffer"):
        F.conv_bn_act(x, w, None, stride=1, padding=1, output_padding=1, gemm=np.zeros((3, 64)))


def test_fused_chain_caches_bordered_gemm_buffer(rng, compute_threads):
    """Chain level: the stride-1 convs get their block scratch from the
    buffer cache, under the ``"gemm"`` namespace, allocated once and reused
    across same-geometry calls; they run one after another, so they share
    one buffer sized for the larger.  NaN-filling the cached buffers between
    calls proves the run consumes them rather than allocating its own (on a
    team of one, whose single member slice every unit rewrites)."""
    compute_threads(1)
    block = VGGBlock(2, 3, rng=rng)
    chain = build_chain(block.fusible_chain())
    x = rng.standard_normal((2, 2, 8, 8))
    first = chain.run(x)
    gemm_keys = [key for key in chain._scratch if key[0] == "gemm"]
    assert [key[1] for key in gemm_keys] == [
        max(
            F.conv_gemm_shape((2, 2, 10, 10), (3, 2, 3, 3)),
            F.conv_gemm_shape((2, 3, 10, 10), (3, 3, 3, 3)),
        )
    ]
    ids = {key: id(chain._scratch[key]) for key in gemm_keys}
    for key in gemm_keys:
        chain._scratch[key].fill(np.nan)
    second = chain.run(x)
    assert {key: id(chain._scratch[key]) for key in gemm_keys} == ids
    for key in gemm_keys:
        assert not np.isnan(chain._scratch[key]).any()
    np.testing.assert_array_equal(first, second)


def test_fused_chain_scratch_eviction_is_lru(rng):
    """Bugfix pin: overflowing ``MAX_CACHED_BUFFERS`` evicts only the
    least-recently-used entries (hits refresh recency) — the old behaviour
    cleared the *entire* cache, so a steady alternating-geometry workload
    re-allocated its hot buffers after every stream of one-off shapes."""
    block = VGGBlock(2, 3, rng=rng)
    chain = build_chain(block.fusible_chain())
    hot = rng.standard_normal((1, 2, 8, 8))
    expected = build_chain(block.fusible_chain()).run(hot)
    np.testing.assert_array_equal(chain.run(hot), expected)
    hot_ids = {key: id(buf) for key, buf in chain._scratch.items()}
    for size in range(9, 9 + chain.MAX_CACHED_BUFFERS + 4):
        chain.run(rng.standard_normal((1, 2, size, size)))  # one-off geometry
        np.testing.assert_array_equal(chain.run(hot), expected)  # hot stays hot
    assert len(chain._scratch) <= chain.MAX_CACHED_BUFFERS
    survivors = {key: id(buf) for key, buf in chain._scratch.items() if key in hot_ids}
    assert survivors == hot_ids, "hot-geometry buffers were evicted (or re-allocated)"


# --------------------------------------------------------------------- #
# Compiled global perception: pool + Fourier unit as one fused op
# --------------------------------------------------------------------- #
def _gp_models(tiny_model_factory) -> dict:
    """``geometry -> (model, size)``: a full-spectrum and a truncating GP."""
    truncating = DOINN(DOINNConfig(gp_channels=4, lp_base_channels=2, modes=2))
    return {
        "full-spectrum": (tiny_model_factory("doinn"), 32),  # 2*modes == 32/8
        "truncating": (truncating, 64),                      # 2*modes == 4 < 64/8
    }


def _gp_forward(model, x: np.ndarray) -> np.ndarray:
    with eval_mode(model), no_grad():
        return model.global_perception(Tensor(x)).numpy()


@pytest.mark.parametrize("geometry", ["full-spectrum", "truncating"])
def test_compiled_gp_matches_unfused(tiny_model_factory, rng, geometry):
    model, size = _gp_models(tiny_model_factory)[geometry]
    gp = model.global_perception
    assert (2 * gp.modes == size // gp.pool_factor) == (geometry == "full-spectrum")
    graph = compile_model(model)
    compiled = graph.global_perception
    assert isinstance(compiled.fourier_unit, CompiledFourierUnit)
    assert isinstance(compiled.pool, Identity)
    # The FLOP accounting reads the unfolded weights through the compiled child.
    for name in ("lift_weight", "mix_weight"):
        np.testing.assert_array_equal(
            getattr(compiled.fourier_unit, name).data, getattr(gp.fourier_unit, name).data
        )
    x = (rng.random((5, 1, size, size)) > 0.7).astype(float)
    fused = _gp_forward(graph, x)
    assert fused.dtype == np.float64
    np.testing.assert_allclose(fused, _gp_forward(model, x), **TOL)
    np.testing.assert_allclose(_eval_forward(graph, x), _eval_forward(model, x), **TOL)


def test_compiled_gp_is_partition_invariant(tiny_model_factory, rng):
    for model, size in _gp_models(tiny_model_factory).values():
        graph = compile_model(model)
        x = rng.random((6, 1, size, size))
        singles = np.concatenate([_gp_forward(graph, x[i : i + 1]) for i in range(6)])
        np.testing.assert_array_equal(_gp_forward(graph, x), singles)


def test_compiled_gp_pickle_round_trip(tiny_model_factory, rng):
    graph = compile_model(tiny_model_factory("doinn"))
    x = rng.random((3, 1, 32, 32))
    clone = pickle.loads(pickle.dumps(graph))
    assert isinstance(clone.global_perception.fourier_unit, CompiledFourierUnit)
    np.testing.assert_array_equal(_gp_forward(clone, x), _gp_forward(graph, x))


def test_float32_graph_keeps_float64_gp(tiny_model_factory, rng):
    """GP computes in float64 on every lane: a float32 graph's GP bits are the
    float64 graph's."""
    model = tiny_model_factory("doinn")
    g64 = compile_model(model)
    g32 = compile_model(model, backend="float32")
    assert g32.global_perception.fourier_unit.weight.dtype == np.complex128
    x = rng.random((3, 1, 32, 32))
    out32 = _gp_forward(g32, x)
    assert out32.dtype == np.float64
    np.testing.assert_array_equal(out32, _gp_forward(g64, x))


# --------------------------------------------------------------------- #
# Compute lanes: conversions
# --------------------------------------------------------------------- #
def test_float64_backend_is_bit_identical(zoo_model, rng):
    """The lane contract: converting to the default float64 backend changes
    *nothing* — outputs are bit-for-bit the unconverted graph's, zoo-wide."""
    name, model = zoo_model
    x = rng.random((4, 1, 32, 32))
    plain = compile_model(model)
    converted = compile_model(model, backend="float64")
    assert converted.dtype == np.float64
    with no_grad():
        np.testing.assert_array_equal(
            converted(Tensor(x)).numpy(), plain(Tensor(x)).numpy(), err_msg=name
        )


# Calibrated against the pinned float64 reference run (seed 1234, batch 4,
# 32 px tiles, the conftest TINY_MODEL_KWARGS zoo): measured max|delta| was
# doinn 2.9e-7, unet 1.1e-6, damo-dls 1.5e-6, fno 2.2e-7.  Bounds sit ~4x
# above the measurement so they fail on a real precision regression (a
# float64 accumulation sneaking out, a weight cast at the wrong point), not
# on rounding noise.
FLOAT32_MAX_ABS_DELTA = {"doinn": 1.5e-6, "unet": 5.0e-6, "damo-dls": 6.0e-6, "fno": 1.0e-6}


def test_float32_backend_within_calibrated_tolerance(zoo_model, rng):
    name, model = zoo_model
    x = rng.random((4, 1, 32, 32))
    ref = compile_model(model)
    g32 = compile_model(model, backend="float32")
    assert all(op.weight.dtype == np.float32 for chain in g32.chains for op in chain.ops)
    with no_grad():
        delta = np.max(np.abs(g32(Tensor(x)).numpy() - ref(Tensor(x)).numpy()))
    assert delta <= FLOAT32_MAX_ABS_DELTA[name], f"{name}: float32 delta {delta:.3e}"


def test_backend_conversion_guards(tiny_model_factory):
    graph = compile_model(tiny_model_factory("unet"), backend="float32")
    with pytest.raises(ValueError, match="recompile from the source model"):
        graph.convert("float64")
    with pytest.raises(ValueError, match="unknown compute backend"):
        compile_model(tiny_model_factory("unet"), backend="float16")
    # Re-converting to the current lane is free; narrowing is one-way.
    graph64 = compile_model(tiny_model_factory("unet"), backend="float64")
    assert graph64.convert("float64").convert("float32").dtype == np.float32


def test_compile_model_ignores_backend_env(zoo_model, rng, monkeypatch):
    """``compile_model`` never consults ``REPRO_BACKEND`` (the executor layer
    resolves it), so direct compiles — and this whole suite under the CI
    backend matrix — stay deterministic in any environment."""
    name, model = zoo_model
    x = rng.random((2, 1, 32, 32))
    ref = compile_model(model)
    monkeypatch.setenv("REPRO_BACKEND", "float32")
    under_env = compile_model(model)
    assert under_env.dtype is None
    with no_grad():
        np.testing.assert_array_equal(
            under_env(Tensor(x)).numpy(), ref(Tensor(x)).numpy(), err_msg=name
        )


def test_converted_graph_pickle_round_trip(tiny_model_factory, rng):
    """A converted graph ships its lane to pool workers: the lane dtype (and
    the narrowed weights) survive pickling; scratch does not."""
    graph = compile_model(tiny_model_factory("doinn"), backend="float32")
    x = rng.random((2, 1, 32, 32))
    clone = pickle.loads(pickle.dumps(graph))
    assert clone.dtype == np.float32
    assert all(chain._scratch == {} for chain in clone.chains)
    with no_grad():
        np.testing.assert_array_equal(clone(Tensor(x)).numpy(), graph(Tensor(x)).numpy())
