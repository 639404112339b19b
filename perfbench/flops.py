"""Computed FLOP and byte counts of the DOINN summary rows.

Counts come from op shapes, not from hardware counters: a fused conv is a
``(C_out, C_in*kh*kw) x (C_in*kh*kw, H_out*W_out)`` GEMM per sample
(2 FLOPs per multiply-add), a fused transposed conv a
``(C_in, C_out*kh*kw)`` GEMM against the ``H_in*W_in`` input pixels, and the
GP row is average pooling, a complex 2-D FFT of the pooled mask, the
channel lift and per-mode mix (8 FLOPs per complex multiply-add), a complex
2-D inverse FFT per channel (``5 n log2 n`` FLOPs each) and the LeakyReLU.
Bytes are the minimum traffic of each op: its input, weights and output read
or written once at the operand dtype.  Bias adds, activations of the fused
convs and the ``col2im`` scatter adds are not counted.
"""

from __future__ import annotations

import functools
import math


def _conv_counts(op, in_shape: tuple, out_pad: int) -> tuple[float, float, tuple]:
    """FLOPs, bytes and output buffer shape of one fused op in a chain."""
    from repro.nn.fusion import FusedConvTranspose

    out_shape = op.output_shape(in_shape, out_pad)
    n = in_shape[0]
    kh, kw = op.kernel_size
    itemsize = op.weight.dtype.itemsize
    h_out = out_shape[2] - 2 * out_pad
    w_out = out_shape[3] - 2 * out_pad
    if isinstance(op, FusedConvTranspose):
        c_in, c_out = op.weight.shape[0], op.weight.shape[1]
        flop = 2.0 * n * c_in * c_out * kh * kw * in_shape[2] * in_shape[3]
    else:
        c_out, c_in = op.weight.shape[0], op.weight.shape[1]
        flop = 2.0 * n * c_out * c_in * kh * kw * h_out * w_out
    elements = math.prod(in_shape) + op.weight.size + n * c_out * h_out * w_out
    return flop, float(elements * itemsize), out_shape


def conv_work(op, in_shape: tuple, out_pad: int) -> tuple[float, float]:
    """FLOPs and bytes of one fused conv applied to a (padded) input buffer."""
    flop, nbytes, _ = _conv_counts(op, tuple(in_shape), out_pad)
    return flop, nbytes


def chain_work(chain, x_shape: tuple) -> tuple[float, float]:
    """FLOPs and bytes of one ``FusedChain.run`` on an input of ``x_shape``.

    Walks the buffer shapes exactly as the chain does: the entry buffer
    carries the first op's padding, and every op emits inside the border the
    next op wants.
    """
    return _chain_work(chain, tuple(x_shape))


@functools.lru_cache(maxsize=256)
def _chain_work(chain, x_shape: tuple) -> tuple[float, float]:
    ops = chain.ops
    pad = ops[0].input_pad
    n, c, h, w = x_shape
    shape = (n, c, h + 2 * pad, w + 2 * pad)
    flop = nbytes = 0.0
    for index, op in enumerate(ops):
        out_pad = ops[index + 1].input_pad if index + 1 < len(ops) else 0
        op_flop, op_bytes, shape = _conv_counts(op, shape, out_pad)
        flop += op_flop
        nbytes += op_bytes
    return flop, nbytes


def gp_work(module, x_shape: tuple) -> tuple[float, float]:
    """FLOPs and bytes of one ``GlobalPerception`` forward on ``(N, 1, H, W)``."""
    n, c_in, h, w = x_shape
    lift = module.fourier_unit.lift_weight.data
    mix = module.fourier_unit.mix_weight.data
    c_out = lift.shape[1]
    mh, mw = mix.shape[2], mix.shape[3]
    pool = module.pool_factor
    ph, pw = h // pool, w // pool
    points = ph * pw
    fft = 5.0 * points * math.log2(points)
    flop = n * (
        c_in * h * w                          # average pooling
        + c_in * fft                          # FFT
        + 8.0 * c_in * c_out * mh * mw        # channel lift
        + 8.0 * c_out * c_out * mh * mw       # per-mode mix
        + c_out * fft                         # iFFT
        + c_out * points                      # LeakyReLU
    )
    weights = lift.size + mix.size
    nbytes = 8.0 * (n * c_in * h * w + weights + n * c_out * points)
    return flop, nbytes
