"""Eval-mode operator-fusion compiler for the conv->BN->LeakyReLU hot path
and DOINN's global-perception (GP) path.

PR 2 profiling showed ~50% of model-forward time going to the per-sample
pad+pack in ``conv2d`` — the padded input is re-read k^2 times per conv and
re-padded between the two convolutions of every VGG block — while the
eval-mode conv -> batch-norm -> LeakyReLU chain makes three separate passes
over a working set that thrashes the single-core cache.  This module compiles
that chain away:

* :class:`FusedConvBNAct` — one fused op: a convolution whose weights/bias
  carry the folded eval-mode batch-norm affine, with the activation applied on
  the GEMM output tile while it is cache resident
  (:func:`repro.nn.functional.conv_bn_act`).
* :class:`FusedConvTranspose` — the transposed-conv mirror
  (:func:`repro.nn.functional.conv_transpose_bn_act`): one sub-pixel
  stride-1 conv through the same block kernel, each of its ``stride**2``
  output phases landed straight into the output, so the decoder/upsampling
  half of a model (DOINN's ``dconv1-3``, the UNet up path) compiles into the
  same chains as its convolutions.
* :class:`FusedChain` — a straight-line sequence of fused ops sharing a
  **pad-once buffer cache**: each op emits its result directly inside the zero
  border the *next* op's padding needs, so consecutive same-geometry convs in
  a VGG block consume one padded buffer instead of re-padding (and the scratch
  buffers themselves are reused across calls of the same geometry).
* :class:`CompiledFourierUnit` — the GP path (average pool -> Optimized
  Fourier Unit -> LeakyReLU, paper eq. (11)) as one op: the complex channel
  lift is folded into the per-mode mix at compile time, so a forward is one
  FFT of the pooled input, ``C_in`` elementwise multiply-accumulates over the
  retained modes, one inverse FFT and the activation.  No BLAS call runs, so
  its bits depend neither on the batch split nor on the BLAS thread count.
* :func:`compile_model` — walks a :class:`~repro.nn.layers.Module` tree
  (``Sequential`` runs, the DOINN/UNet/FNO/DAMO blocks, bare ``Conv2d`` /
  ``ConvTranspose2d`` layers, the method-level chains models declare via
  ``fusion_rewrites()`` and the Fourier units declared via
  ``fusion_spectral()``), folds every declared chain and unit, and returns a
  :class:`FusedInferenceGraph`.

Transposed-conv fusion contract (the ``output_padding`` crop-fold):

A transposed convolution consumes its input **unpadded** — its ``padding``
hyper-parameter crops the output instead of padding the input — so
inside a chain a ``FusedConvTranspose`` declares ``input_pad == 0`` (the
preceding op emits a borderless buffer) while still *emitting* its cropped
result inside the zero border the next conv's padding needs
(``output_padding``).  The crop is folded into that emission: the kernel
lands only the output rows and columns the crop keeps, straight into the
interior of the next op's pre-zeroed entry buffer, so a ``dconv -> conv``
link (DOINN's ``dconvN -> vggN`` runs, the UNet bottleneck -> first-up chain)
costs neither a separate crop copy nor a re-pad — the pad-once /
``input_is_padded`` handshake extends through the whole decoder.  The
sub-pixel conv reads a ``ceil(k/s) - 1``-padded copy of its input, which
it writes into the chain's ``"gemm"`` scratch next to its block packs (as a
strided conv writes its space-to-depth copy there); that scratch is fully
rewritten by every call, so it carries no zero-border contract (and its
cache key is namespaced apart from the bordered buffers).

The compiled artifact is a **deep copy**: the source model's parameters,
buffers, train/eval flags and autograd behaviour are untouched (pinned by the
equivalence suite in ``tests/nn/test_fusion.py``), and the fold snapshots the
batch-norm running statistics at compile time — recompile after loading new
weights.  Fused graphs are inference only: running one in training mode or
under an autograd-tracked input raises.

Declaration protocol (the "fusion metadata" the layers/models expose):

``fusible_chain()``
    A module whose *entire* forward is a conv chain returns an ordered list of
    ``(conv, bn_or_None, activation_or_None)`` steps (``VGGBlock``, UNet's
    ``_DoubleConv``, DAMO's ``_ConvBlock``, a bare ``Conv2d``).
``fusion_rewrites()``
    A module whose forward is only *partially* a chain maps helper-method
    names to chain steps (e.g. DOINN's refine tail, the UNet/DAMO/FNO output
    heads); the compiler shadows each method with the fused kernel.
``fusion_spectral()``
    A module whose forward is ``unit(pool(x))`` over an ``AvgPool2d`` and an
    :class:`~repro.nn.layers.OptimizedFourierUnit` returns the child names
    ``(pool_name, unit_name)``; the compiler replaces the unit with a
    :class:`CompiledFourierUnit` that also pools, and the pool with an
    :class:`~repro.nn.layers.Identity` (DOINN's GP path).
``fusion_refresh()``
    Called after a module's children were rewritten so cached child lists
    (e.g. ``UNet.encoders``) can be rebuilt.
``BatchNorm2d.fold_inference_affine()`` / ``*.fusion_activation()``
    Per-layer folding metadata consumed when a chain is built.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np

from . import functional as F
from .backends import resolve_backend
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Identity,
    Module,
    OptimizedFourierUnit,
    Sequential,
)
from .spectral import _as_complex, scatter_spectrum, truncate_spectrum
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "FusedConvBNAct",
    "FusedConvTranspose",
    "FusedChain",
    "CompiledChain",
    "CompiledFourierUnit",
    "FusedInferenceGraph",
    "FusionFallbackWarning",
    "build_chain",
    "compile_model",
]


class FusionFallbackWarning(UserWarning):
    """A declared fusible chain could not be compiled; the module runs unfused.

    Raised as a *warning*, not an error: an unsupported layer mid-chain (an
    activation without fusion metadata, a BatchNorm whose width does not
    match, a layer that is neither a conv nor a transposed conv) silently
    degrading to unfused execution is exactly the failure mode this
    surfaces.  ``module_path`` names the offending module inside the
    compiled copy (e.g. ``"DOINN.reconstruction"``), ``reason`` carries the
    chain-construction error.  The same ``(module_path, reason)`` pairs are
    recorded on :attr:`FusedInferenceGraph.fallbacks` for programmatic checks.
    """

    def __init__(self, module_path: str, reason: str) -> None:
        super().__init__(
            f"cannot fuse {module_path}: {reason}; the module falls back to "
            "unfused execution"
        )
        self.module_path = module_path
        self.reason = reason


# ---------------------------------------------------------------------- #
# Fused ops and chains
# ---------------------------------------------------------------------- #
class FusedConvBNAct:
    """One fused inference op: conv + folded BN affine + activation.

    ``weight``/``bias`` already carry the batch-norm fold; ``activation`` is
    one of :data:`repro.nn.functional.FUSED_ACTIVATIONS`.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        padding: int = 0,
        activation: str = "identity",
        negative_slope: float = 0.0,
        label: str = "",
    ) -> None:
        if activation not in F.FUSED_ACTIVATIONS:
            raise ValueError(f"unknown fused activation {activation!r}")
        self.weight = np.asarray(weight)
        self.bias = None if bias is None else np.asarray(bias)
        if self.weight.ndim != 4:
            raise ValueError(f"fused conv weight must be 4-D, got shape {self.weight.shape}")
        self.stride = int(stride)
        self.padding = int(padding)
        self.activation = activation
        self.negative_slope = float(negative_slope)
        self.label = label

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]

    # -- chain-op interface (shared with FusedConvTranspose) ------------- #
    @property
    def input_pad(self) -> int:
        """Zero-border width this op wants its input buffer to carry."""
        return self.padding

    def output_shape(self, input_shape: tuple, output_padding: int) -> tuple:
        """Output buffer shape for an input buffer that carries ``input_pad``."""
        n, _, hp, wp = input_shape
        kh, kw = self.kernel_size
        h_out = (hp - kh) // self.stride + 1
        w_out = (wp - kw) // self.stride + 1
        return (n, self.out_channels, h_out + 2 * output_padding, w_out + 2 * output_padding)

    def gemm_shape(self, input_shape: tuple):
        """GEMM scratch this op needs from the chain's buffer cache.

        See :func:`repro.nn.functional.conv_gemm_shape`: a strided conv's
        space-to-depth input copy, then one block's kernel-row pack, result
        and accumulator per compute-team member, reused for every block of
        every sample.
        """
        return F.conv_gemm_shape(input_shape, self.weight.shape, self.stride)

    def apply(self, buf, out=None, output_padding: int = 0, gemm=None):
        return F.conv_bn_act(
            buf,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            activation=self.activation,
            negative_slope=self.negative_slope,
            input_is_padded=True,
            output_padding=output_padding,
            out=out,
            gemm=gemm,
        )

    @classmethod
    def from_modules(cls, conv: Conv2d, bn: BatchNorm2d | None = None, act=None) -> "FusedConvBNAct":
        """Fold one declared ``(conv, bn, activation)`` step into a fused op."""
        if not isinstance(conv, Conv2d):
            raise TypeError(
                f"fused chain steps start from Conv2d or ConvTranspose2d layers, "
                f"got {type(conv).__name__}"
            )
        weight, bias = _fold_bn(conv, bn, channel_axis=0)
        activation, slope = _fusion_activation(act)
        return cls(
            weight,
            bias,
            stride=conv.stride,
            padding=conv.padding,
            activation=activation,
            negative_slope=slope,
            label=f"conv{'+bn' if bn is not None else ''}{'+' + activation if act is not None else ''}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c_out, c_in, kh, kw = self.weight.shape
        return (
            f"FusedConvBNAct({c_in}->{c_out}, k={kh}x{kw}, s={self.stride}, "
            f"p={self.padding}, act={self.activation})"
        )


def _fold_bn(layer, bn: BatchNorm2d | None, channel_axis: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Fold an eval-mode BatchNorm affine into a (de)conv's weight and bias.

    ``channel_axis`` locates the output-channel axis of the weight layout:
    0 for ``Conv2d`` (``(C_out, C_in, kh, kw)``), 1 for ``ConvTranspose2d``
    (``(C_in, C_out, kh, kw)``).
    """
    weight = layer.weight.data
    bias = None if layer.bias is None else layer.bias.data
    if bn is None:
        return weight, bias
    if not isinstance(bn, BatchNorm2d):
        raise TypeError(f"expected BatchNorm2d after conv, got {type(bn).__name__}")
    if bn.num_features != layer.out_channels:
        raise ValueError(
            f"cannot fold BatchNorm2d({bn.num_features}) into {type(layer).__name__} "
            f"with {layer.out_channels} output channels"
        )
    scale, shift = bn.fold_inference_affine()
    expand = [None] * weight.ndim
    expand[channel_axis] = slice(None)
    weight = weight * scale[tuple(expand)]
    bias = shift if bias is None else bias * scale + shift
    return weight, bias


def _fusion_activation(act) -> tuple[str, float]:
    if act is None:
        return "identity", 0.0
    fusion_activation = getattr(act, "fusion_activation", None)
    if fusion_activation is None:
        raise TypeError(f"{type(act).__name__} declares no fusion_activation()")
    return fusion_activation()


class FusedConvTranspose:
    """One fused inference op: transposed conv + folded BN affine + activation.

    ``weight`` is the PyTorch transposed layout ``(C_in, C_out, kh, kw)``
    with the batch-norm fold already applied along the output-channel axis;
    execution is :func:`repro.nn.functional.conv_transpose_bn_act` (one
    sub-pixel stride-1 conv with ``stride**2 * C_out`` output channels,
    through the block kernel of the convolutions).  Inside a
    :class:`FusedChain` it consumes its input
    borderless (``input_pad == 0`` — a transposed conv's ``padding`` crops
    the output instead of padding the input) and emits the cropped result
    inside the next op's zero border.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        padding: int = 0,
        activation: str = "identity",
        negative_slope: float = 0.0,
        label: str = "",
    ) -> None:
        if activation not in F.FUSED_ACTIVATIONS:
            raise ValueError(f"unknown fused activation {activation!r}")
        self.weight = np.asarray(weight)
        self.bias = None if bias is None else np.asarray(bias)
        if self.weight.ndim != 4:
            raise ValueError(f"fused deconv weight must be 4-D, got shape {self.weight.shape}")
        self.stride = int(stride)
        self.padding = int(padding)
        self.activation = activation
        self.negative_slope = float(negative_slope)
        self.label = label

    #: A transposed conv consumes unpadded input; ``padding`` crops its output.
    input_pad = 0

    @property
    def out_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]

    def output_shape(self, input_shape: tuple, output_padding: int) -> tuple:
        n, _, h, w = input_shape
        kh, kw = self.kernel_size
        h_out = (h - 1) * self.stride - 2 * self.padding + kh
        w_out = (w - 1) * self.stride - 2 * self.padding + kw
        return (n, self.out_channels, h_out + 2 * output_padding, w_out + 2 * output_padding)

    def gemm_shape(self, input_shape: tuple):
        """GEMM scratch of the sub-pixel conv (see
        :func:`repro.nn.functional.conv_transpose_gemm_shape`)."""
        return F.conv_transpose_gemm_shape(input_shape, self.weight.shape, self.stride, self.padding)

    def apply(self, buf, out=None, output_padding: int = 0, gemm=None):
        return F.conv_transpose_bn_act(
            buf,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            activation=self.activation,
            negative_slope=self.negative_slope,
            output_padding=output_padding,
            out=out,
            gemm=gemm,
        )

    @classmethod
    def from_modules(
        cls, deconv: ConvTranspose2d, bn: BatchNorm2d | None = None, act=None
    ) -> "FusedConvTranspose":
        """Fold one declared ``(deconv, bn, activation)`` step into a fused op."""
        if not isinstance(deconv, ConvTranspose2d):
            raise TypeError(
                f"FusedConvTranspose folds ConvTranspose2d layers, got {type(deconv).__name__}"
            )
        weight, bias = _fold_bn(deconv, bn, channel_axis=1)
        activation, slope = _fusion_activation(act)
        return cls(
            weight,
            bias,
            stride=deconv.stride,
            padding=deconv.padding,
            activation=activation,
            negative_slope=slope,
            label=f"dconv{'+bn' if bn is not None else ''}{'+' + activation if act is not None else ''}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c_in, c_out, kh, kw = self.weight.shape
        return (
            f"FusedConvTranspose({c_in}->{c_out}, k={kh}x{kw}, s={self.stride}, "
            f"p={self.padding}, act={self.activation})"
        )


class FusedChain:
    """A straight-line sequence of fused ops with a pad-once buffer cache.

    Every op emits its output inside the zero border the next op's
    ``input_pad`` requires (transposed convs request a borderless input and
    fold their output crop into the emission), so the chain pads exactly once
    (on entry) no matter how many operations it contains.  Intermediate
    buffers (and the entry pad buffer) are cached per geometry and reused
    across calls — their borders are zeroed once at allocation and never
    written again; only the final op allocates a fresh array, which is handed
    to the caller.  Cache keys are namespaced by buffer family (``"in"`` /
    ``"out"`` / ``"gemm"``) *and* carry the full shape
    including the batch dimension, so one compiled engine serving
    interleaved batch sizes (the ragged final shards of a streamed tile
    sweep) can never hand a buffer of one geometry to a call of another.
    The ``"gemm"`` scratch holds an op's input copy (a strided conv's
    space-to-depth layout, a transposed conv's padded input) and one block
    slice per member of the compute team
    (:func:`repro.nn.backends.compute_team`); all ops share one ``"gemm"``
    buffer sized for the largest of them, since they run one after another.
    None of it is pickled.
    """

    #: Cached working buffers per chain before the oldest entry is evicted —
    #: bounds resident memory when a long-lived graph serves many distinct
    #: geometries (batch remainders, varying tile sizes) while keeping the
    #: steady-state reuse of typical workloads (a few geometries per chain).
    MAX_CACHED_BUFFERS = 32

    def __init__(self, ops, label: str = "") -> None:
        self.ops: list = list(ops)  # FusedConvBNAct | FusedConvTranspose
        if not self.ops:
            raise ValueError("a fused chain needs at least one op")
        self.label = label
        #: Working dtype of the chain's compute lane (None = the folded
        #: weights' own float64, never converted); set by :meth:`convert`.
        self.dtype: np.dtype | None = None
        self._scratch: dict = {}

    def __len__(self) -> int:
        return len(self.ops)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_scratch"] = {}  # per-process working buffers, never shipped
        return state

    # -- lane conversion ------------------------------------------------ #
    def convert(self, dtype: np.dtype) -> None:
        """Switch the chain to the ``dtype`` lane, casting folded weights in place.

        ``astype(copy=False)`` keeps a same-dtype conversion free; the
        scratch cache is dropped because its keyed dtypes may no longer
        match.  Precision narrowing is one-way — the graph-level
        :meth:`FusedInferenceGraph.convert` guards against widening a
        narrowed graph.
        """
        for op in self.ops:
            op.weight = op.weight.astype(dtype, copy=False)
            if op.bias is not None:
                op.bias = op.bias.astype(dtype, copy=False)
        self.dtype = np.dtype(dtype)
        self._scratch = {}

    # -- buffer cache --------------------------------------------------- #
    def _cached_zeros(self, key: tuple, shape: tuple, dtype) -> np.ndarray:
        """A zero-bordered scratch buffer, reused across same-geometry calls.

        Only the interior of a cached buffer is ever rewritten, so the border
        stays zero from the one allocation.  Once :data:`MAX_CACHED_BUFFERS`
        distinct geometries accumulate, only the least-recently-used entry
        is evicted (hits refresh recency), so the steady-state buffers of an
        alternating-geometry workload survive a stream of one-off shapes
        instead of the whole cache thrashing.  Buffers still referenced by
        an in-flight run stay alive through their local references;
        re-allocated ones start zeroed again.
        """
        buf = self._scratch.get(key)
        if buf is None:
            while len(self._scratch) >= self.MAX_CACHED_BUFFERS:
                self._scratch.pop(next(iter(self._scratch)))
            buf = np.zeros(shape, dtype=dtype)
        else:
            del self._scratch[key]  # re-insert below: dict order is recency
        self._scratch[key] = buf
        return buf

    def _padded_input(self, x: np.ndarray, pad: int, dtype=None) -> np.ndarray:
        n, c, h, w = x.shape
        target = x.dtype if dtype is None else np.dtype(dtype)
        key = ("in", n, c, h, w, pad, target.str)
        buf = self._cached_zeros(key, (n, c, h + 2 * pad, w + 2 * pad), target)
        buf[:, :, pad : pad + h, pad : pad + w] = x  # casts to the lane dtype
        return buf

    def _output_buffer(self, index: int, shape: tuple, dtype) -> np.ndarray:
        return self._cached_zeros(("out", index, shape, np.dtype(dtype).str), shape, dtype)

    def _gemm_buffer(self, length: int, dtype) -> np.ndarray:
        # GEMM scratch (input copies and block packs) is fully rewritten by
        # every call; it has no zero-border contract, and its own namespace
        # keeps it from ever aliasing a bordered buffer of equal shape.  The
        # ops run one after another, so the chain keeps one flat buffer for
        # the largest of them.
        return self._cached_zeros(("gemm", (length,), np.dtype(dtype).str), (length,), dtype)

    # -- execution ------------------------------------------------------ #
    def run(self, x: np.ndarray) -> np.ndarray:
        """Run the chain on an ndarray batch ``(N, C, H, W)`` (inference only)."""
        ops = self.ops
        target = self.dtype
        entry_pad = ops[0].input_pad
        x = np.asarray(x)
        if entry_pad:
            buf = self._padded_input(x, entry_pad, dtype=target)
        elif target is not None and x.dtype != target:
            # Borderless entry into a non-native lane: one cached cast buffer
            # (the float32 lane's only extra copy over the float64 path).
            n, c, h, w = x.shape
            buf = self._cached_zeros(("in", n, c, h, w, 0, target.str), x.shape, target)
            buf[...] = x
        else:
            buf = x
        # Each op's input shape, output border and dtype, known up front so
        # the shared GEMM scratch is sized once per call.
        steps = []
        shape, dtype = buf.shape, buf.dtype
        for index, op in enumerate(ops):
            out_pad = ops[index + 1].input_pad if index + 1 < len(ops) else 0
            dtype = np.result_type(dtype, op.weight)
            steps.append((shape, out_pad, dtype, op.gemm_shape(shape)))
            shape = op.output_shape(shape, out_pad)
        lengths: dict = {}
        for _, _, dtype, (length,) in steps:
            lengths[dtype] = max(lengths.get(dtype, 0), length)
        gemms = {dtype: self._gemm_buffer(length, dtype) for dtype, length in lengths.items()}
        for index, (op, (shape, out_pad, dtype, (length,))) in enumerate(zip(ops, steps)):
            out = None
            if index + 1 < len(ops):
                out = self._output_buffer(index, op.output_shape(shape, out_pad), dtype)
            buf = op.apply(buf, out=out, output_padding=out_pad, gemm=gemms[dtype][:length])
        return buf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusedChain({self.label or 'chain'}, ops={len(self.ops)})"


def _normalize_steps(steps) -> list[tuple]:
    normalized = []
    for step in steps:
        if isinstance(step, (tuple, list)):
            conv, bn, act = (tuple(step) + (None, None))[:3]
        else:
            conv, bn, act = step, None, None
        normalized.append((conv, bn, act))
    return normalized


def _fuse_step(conv, bn, act):
    """Fold one chain step, dispatching on the conv family."""
    if isinstance(conv, ConvTranspose2d):
        return FusedConvTranspose.from_modules(conv, bn, act)
    return FusedConvBNAct.from_modules(conv, bn, act)


def build_chain(steps, label: str = "") -> FusedChain:
    """Fold declared ``(conv, bn, activation)`` steps into a :class:`FusedChain`.

    The conv element of a step may be a :class:`~repro.nn.layers.Conv2d` or a
    :class:`~repro.nn.layers.ConvTranspose2d`; chains may mix both freely
    (e.g. DOINN's ``dconvN -> vggN`` decoder runs).
    """
    normalized = _normalize_steps(steps)
    ops = [_fuse_step(conv, bn, act) for conv, bn, act in normalized]
    return FusedChain(ops, label=label)


# ---------------------------------------------------------------------- #
# Module-tree rewriting
# ---------------------------------------------------------------------- #
def _check_inference(training: bool, x) -> None:
    if training:
        raise RuntimeError(
            "fused inference graphs run in eval mode only (the batch-norm fold "
            "snapshots running statistics); call .eval() or recompile"
        )
    if is_grad_enabled() and isinstance(x, Tensor) and x.requires_grad:
        raise RuntimeError(
            "fused inference graphs do not build an autograd graph; run them "
            "under repro.nn.no_grad() (training forwards use the unfused model)"
        )


class CompiledChain(Module):
    """A module whose forward is one :class:`FusedChain` (inference only)."""

    def __init__(self, chain: FusedChain, source: str = "") -> None:
        super().__init__()
        self.chain = chain
        self.source = source
        self.training = False

    def forward(self, x: Tensor) -> Tensor:
        _check_inference(self.training, x)
        return Tensor(self.chain.run(x.data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledChain({self.source or self.chain.label}, ops={len(self.chain)})"


class CompiledFourierUnit(Module):
    """DOINN's GP path as one fused op: average pool -> Optimized Fourier
    Unit -> LeakyReLU (paper eq. (11)), inference only.

    Replaces an :class:`~repro.nn.layers.OptimizedFourierUnit` child on the
    compiled copy.  ``weight`` is the complex ``(C_in, C_out, 2*modes,
    2*modes)`` mode mix with the channel lift folded in at compile time,
    ``W_eff[i, o, x, y] = sum_j lift[i, j] * mix[j, o, x, y]``, so a forward
    pools, takes one FFT, gathers the retained modes (the identity when
    ``2*modes`` equals the pooled size), multiply-accumulates over ``C_in``
    in a fixed order, scatters, takes one inverse FFT and applies the
    LeakyReLU on the real part.  Every step is elementwise or one transform
    per channel and no BLAS call runs, so a sample's bits depend neither on
    the batch it arrives in nor on the BLAS thread count.  The op computes
    in float64 on every lane (:meth:`FusedInferenceGraph.convert` only
    converts chains).  The unit's ``lift_weight`` / ``mix_weight``
    parameters stay readable for FLOP accounting; the forward reads only the
    folded ``weight``.
    """

    def __init__(self, pool: AvgPool2d, unit: OptimizedFourierUnit) -> None:
        F._check_fused_activation("leaky_relu", unit.negative_slope)
        super().__init__()
        self.lift_weight = unit.lift_weight
        self.mix_weight = unit.mix_weight
        self.modes = unit.modes
        self.pool_factor = pool.kernel_size
        self.negative_slope = unit.negative_slope
        lift = _as_complex(unit.lift_weight.data)            # (C_in, C_out)
        mix = _as_complex(unit.mix_weight.data)              # (C_out, C_out, mh, mw)
        # Fold in a fixed order with elementwise ops: the folded bits never
        # depend on a BLAS library or its thread count.
        weight = lift[:, 0, None, None, None] * mix[0]
        for j in range(1, lift.shape[1]):
            weight += lift[:, j, None, None, None] * mix[j]
        self.weight = weight
        self.training = False

    def forward(self, x: Tensor) -> Tensor:
        _check_inference(self.training, x)
        x = Tensor(np.asarray(x.data, dtype=np.float64))
        pooled = F.avg_pool2d(x, self.pool_factor).data
        c, h, w = pooled.shape[1:]
        spectrum = np.fft.fft2(pooled, axes=(-2, -1))
        truncated = 2 * self.modes != h or 2 * self.modes != w
        if truncated:
            spectrum = truncate_spectrum(spectrum, self.modes)
        weight = self.weight
        mixed = spectrum[:, 0, None] * weight[0]
        for i in range(1, c):
            mixed += spectrum[:, i, None] * weight[i]
        if truncated:
            mixed = scatter_spectrum(mixed, h, w, self.modes)
        out = np.ascontiguousarray(np.fft.ifft2(mixed, axes=(-2, -1)).real)
        F._apply_activation_inplace(out, "leaky_relu", self.negative_slope)
        return Tensor(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c_in, c_out, mh, mw = self.weight.shape
        return f"CompiledFourierUnit({c_in}->{c_out}, modes={mh}x{mw}, pool={self.pool_factor})"


class _FusedMethod:
    """Picklable callable installed as an instance attribute by a
    ``fusion_rewrites()`` declaration, shadowing the eval-path helper method
    it replaces on the compiled copy."""

    def __init__(self, chain: FusedChain, owner: Module) -> None:
        self.chain = chain
        self.owner = owner

    def __call__(self, x: Tensor) -> Tensor:
        _check_inference(self.owner.training, x)
        return Tensor(self.chain.run(x.data))


def _rewrite_sequential(seq: Sequential, chains: list, consumed: set) -> None:
    """Fuse maximal ``(Conv2d|ConvTranspose2d) [-> BatchNorm2d] [-> act]`` runs.

    The first position of a run becomes a :class:`CompiledChain`; the
    remaining positions become :class:`~repro.nn.layers.Identity` so the
    Sequential's order (and train/eval walking) is preserved.
    """
    names = list(seq._order)
    mods = [getattr(seq, name) for name in names]
    runs: list[dict] = []
    current: dict | None = None
    i = 0
    while i < len(mods):
        module = mods[i]
        if isinstance(module, (Conv2d, ConvTranspose2d)) and id(module) not in consumed:
            bn = act = None
            j = i + 1
            if j < len(mods) and isinstance(mods[j], BatchNorm2d) and mods[j].num_features == module.out_channels:
                bn = mods[j]
                j += 1
            if (
                j < len(mods)
                and not isinstance(mods[j], (Conv2d, ConvTranspose2d))
                and getattr(mods[j], "fusion_activation", None) is not None
            ):
                act = mods[j]
                j += 1
            step = (module, bn, act)
            indices = list(range(i, j))
            if current is not None and current["end"] == i:
                current["steps"].append(step)
                current["indices"].extend(indices)
                current["end"] = j
            else:
                current = {"start": i, "end": j, "steps": [step], "indices": indices}
                runs.append(current)
            i = j
        else:
            current = None
            i += 1
    for run in runs:
        chain = build_chain(run["steps"], label=f"Sequential[{run['start']}:{run['end']}]")
        chains.append(chain)
        consumed.update(id(conv) for conv, _, _ in run["steps"])
        for index in run["indices"]:
            if index == run["start"]:
                setattr(seq, names[index], CompiledChain(chain, source="Sequential"))
            else:
                setattr(seq, names[index], Identity())


def _try_build_chain(steps, label: str, path: str, fallbacks: list) -> FusedChain | None:
    """Build a declared chain, degrading to a warned fallback on failure.

    A chain broken by an unsupported layer mid-chain (a transposed conv, a
    BatchNorm whose width does not match, ...) must neither crash the compile
    nor vanish silently: the module keeps its original unfused implementation
    and a :class:`FusionFallbackWarning` names the module path and the reason.
    """
    try:
        return build_chain(steps, label=label)
    except (TypeError, ValueError) as exc:
        fallbacks.append((path, str(exc)))
        warnings.warn(FusionFallbackWarning(path, str(exc)), stacklevel=3)
        return None


def _rewrite_spectral(module: Module) -> None:
    """Replace a ``fusion_spectral()`` declaration's pool and unit in place."""
    pool_name, unit_name = module.fusion_spectral()
    fused = CompiledFourierUnit(getattr(module, pool_name), getattr(module, unit_name))
    setattr(module, unit_name, fused)
    setattr(module, pool_name, Identity())


def _rewrite_tree(module: Module, chains: list, consumed: set, path: str, fallbacks: list) -> None:
    if getattr(module, "fusion_spectral", None) is not None:
        _rewrite_spectral(module)
    rewrites = getattr(module, "fusion_rewrites", None)
    if rewrites is not None:
        for method_name, steps in rewrites().items():
            steps = _normalize_steps(steps)
            chain = _try_build_chain(
                steps,
                f"{type(module).__name__}.{method_name}",
                f"{path}.{method_name}",
                fallbacks,
            )
            if chain is None:
                continue  # the method keeps its original unfused implementation
            object.__setattr__(module, method_name, _FusedMethod(chain, module))
            consumed.update(id(conv) for conv, _, _ in steps)
            chains.append(chain)
    if isinstance(module, Sequential):
        _rewrite_sequential(module, chains, consumed)
    for name, child in list(module._modules.items()):
        if isinstance(child, (CompiledChain, CompiledFourierUnit, Identity)):
            continue
        child_path = f"{path}.{name}"
        declared = getattr(child, "fusible_chain", None)
        if declared is not None:
            steps = _normalize_steps(declared())
            if all(id(conv) in consumed for conv, _, _ in steps):
                continue  # already folded into a parent-level rewrite
            chain = _try_build_chain(steps, type(child).__name__, child_path, fallbacks)
            if chain is None:
                # Salvage what the broken declaration hid: grandchildren may
                # still declare healthy chains of their own.
                _rewrite_tree(child, chains, consumed, child_path, fallbacks)
                continue
            consumed.update(id(conv) for conv, _, _ in steps)
            chains.append(chain)
            setattr(module, name, CompiledChain(chain, source=type(child).__name__))
        else:
            _rewrite_tree(child, chains, consumed, child_path, fallbacks)
    refresh = getattr(module, "fusion_refresh", None)
    if refresh is not None:
        refresh()


class FusedInferenceGraph(Module):
    """The compiled artifact: a rewritten model copy plus its fused chains.

    Behaves as a drop-in eval-mode :class:`~repro.nn.layers.Module` — the
    DOINN path hooks (``global_perception`` / ``local_perception`` /
    ``reconstruction`` / ``config``) proxy into the rewritten copy, so the
    large-tile stitching plan and the worker pool compose with a compiled
    engine exactly as with a raw model.
    """

    def __init__(
        self,
        module: Module,
        chains: list[FusedChain],
        source_name: str,
        fallbacks: list[tuple[str, str]] | None = None,
    ) -> None:
        super().__init__()
        self.module = module
        self.chains = list(chains)
        self.source_name = source_name
        #: ``(module_path, reason)`` for every declared chain that could not
        #: be compiled and fell back to unfused execution (each one also
        #: raised a :class:`FusionFallbackWarning` at compile time).
        self.fallbacks = list(fallbacks or [])
        #: Working dtype of the graph's compute lane (None = never converted,
        #: the folded float64 weights); set by :meth:`convert`.
        self.dtype: np.dtype | None = None
        self.eval()

    def forward(self, x: Tensor) -> Tensor:
        return self.module(x)

    def convert(self, backend: str) -> "FusedInferenceGraph":
        """Switch every fused chain to the ``backend`` lane (a name), in place.

        Compiled Fourier units are not chains and keep computing in float64
        on every lane.  Converting to the lane the graph already runs is
        free.  Narrowing to float32 casts the folded weights in place; once
        narrowed, converting back to float64 raises — the lost precision
        cannot be recovered, recompile from the source model.
        """
        dtype = resolve_backend(backend)
        current = self.dtype
        if current is not None and current.itemsize < dtype.itemsize:
            raise ValueError(
                f"cannot convert a {current.name} graph to the {dtype.name} backend: "
                f"the folded weights were already narrowed to {current}; "
                "recompile from the source model instead"
            )
        for chain in self.chains:
            chain.convert(dtype)
        self.dtype = dtype
        return self

    @property
    def num_fused_ops(self) -> int:
        return sum(len(chain) for chain in self.chains)

    # -- DOINN stitching-path proxies (AttributeError when absent, so
    #    hasattr-based capability checks see exactly the wrapped model) ---- #
    @property
    def config(self):
        return self.module.config

    @property
    def global_perception(self):
        return self.module.global_perception

    @property
    def local_perception(self):
        return self.module.local_perception

    @property
    def reconstruction(self):
        return self.module.reconstruction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FusedInferenceGraph({self.source_name}, chains={len(self.chains)}, "
            f"fused_ops={self.num_fused_ops})"
        )


def compile_model(model: Module, backend: str | None = None) -> FusedInferenceGraph:
    """Compile a model into an eval-mode :class:`FusedInferenceGraph`.

    The source model is deep-copied first and never mutated: its parameters,
    buffers and training behaviour stay exactly as they were (the equivalence
    suite pins both directions).  The fold snapshots the current weights and
    batch-norm running statistics — recompile after ``load_state_dict``.

    ``backend`` (``"float64"`` or ``"float32"``, see
    :mod:`repro.nn.backends`) converts the compiled graph onto that lane.
    Deliberately an explicit argument only — ``compile_model`` never consults
    ``REPRO_BACKEND`` (the pipeline/executor layer resolves the env var), so
    direct compiles stay deterministic under any environment.
    """
    if isinstance(model, FusedInferenceGraph):
        if backend is not None:
            model.convert(backend)
        return model
    if not isinstance(model, Module):
        raise TypeError(f"compile_model expects an nn.Module, got {type(model).__name__}")
    source_name = type(model).__name__
    rewritten = copy.deepcopy(model)
    chains: list[FusedChain] = []
    consumed: set[int] = set()
    fallbacks: list[tuple[str, str]] = []
    declared = getattr(rewritten, "fusible_chain", None)
    chain = (
        _try_build_chain(_normalize_steps(declared()), source_name, source_name, fallbacks)
        if declared is not None
        else None
    )
    if chain is not None:
        chains.append(chain)
        rewritten = CompiledChain(chain, source=source_name)
    else:
        _rewrite_tree(rewritten, chains, consumed, source_name, fallbacks)
    graph = FusedInferenceGraph(rewritten, chains, source_name, fallbacks=fallbacks)
    if backend is not None:
        graph.convert(backend)
    return graph
