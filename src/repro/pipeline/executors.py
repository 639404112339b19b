"""Batch executors: one uniform interface over models and litho simulators.

The inference pipeline plans *what* to run (tiles, batches, stitching); an
executor defines *how* one batch is run.  Two families exist:

* :class:`ModelExecutor` wraps any :class:`repro.nn.Module`.  Forwards run
  under :func:`repro.nn.eval_mode` + ``no_grad`` so inference never clobbers
  the caller's train/eval state.  With ``compile=True`` the model is compiled
  once into a :class:`repro.nn.fusion.FusedInferenceGraph` (conv->BN->act
  fusion + pad-once buffer cache) and every batch runs the fused graph; fused
  execution stays per-sample, so it composes with
  :class:`~repro.pipeline.parallel.WorkerPoolExecutor` sharding bit-for-bit.
  When the wrapped model exposes the DOINN path decomposition
  (``global_perception`` / ``local_perception`` / ``reconstruction``), the
  executor also exposes the per-path hooks the large-tile stitching plan
  needs (paper §3.2) — compiled or not.
* :class:`SimulatorExecutor` wraps the golden :class:`LithoSimulator`.  It is
  size-agnostic (the Hopkins/SOCS model convolves masks of any size) and
  routes whole batches through the single-FFT aerial-image path, so the SOCS
  transfer functions are computed once and shared by every mask; the
  inverse transforms run on the compute team (``on_team``).  Each executor
  owns one :class:`~repro.litho.hopkins.AerialWorkspace`, so the FFT
  scratch buffers of the aerial hot loop are allocated once per executor
  and team member — and, under
  :class:`~repro.pipeline.parallel.WorkerPoolExecutor`, once per worker
  process (the workspace pickles empty).

:func:`as_executor` adapts a raw model / simulator / executor uniformly; it is
what lets ``InferencePipeline(engine)`` accept any of the three.
"""

from __future__ import annotations

import numpy as np

from ..litho.hopkins import (
    AerialWorkspace,
    add_field_deltas,
    aerial_from_fields,
    padded_fft_shape,
)
from ..nn import FusedInferenceGraph, Module, Tensor, compile_model, eval_mode, no_grad
from ..nn.backends import BACKENDS, DEFAULT_BACKEND, resolve_backend

__all__ = ["Executor", "ModelExecutor", "SimulatorExecutor", "as_executor"]


class Executor:
    """Interface: run one ``(B, 1, H, W)`` mask batch to predictions."""

    #: Human-readable engine name (used in stats / throughput reports).
    name: str = "executor"
    #: Whether ``run_batch`` accepts masks of any size without tiling.
    arbitrary_size: bool = False
    #: Whether the large-tile GP-stitching plan of §3.2 applies.
    supports_stitching: bool = False
    #: Whether the kernels run on the process's compute team
    #: (:func:`repro.nn.backends.compute_team`), so a serial pipeline sizes
    #: the team for each call and a pool worker sizes its own once.
    on_team: bool = False

    def run_batch(self, batch: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class ModelExecutor(Executor):
    """Executor over a learned model (DOINN or any baseline).

    Full-resolution forwards run in cache-resident **micro-batches**: a deep
    conv stack holds roughly ``32 x H x W`` doubles of activations per
    sample, and pushing more than a couple of megabytes of them through one
    forward spills the per-core cache, making batched inference *slower* per
    sample than ``batch_size=1``.  ``run_batch`` and ``run_reconstruction``
    therefore split large batches internally; outputs are bit-identical to
    the unsplit forward because every per-sample op in
    :mod:`repro.nn.functional` is partition-invariant.  ``run_gp`` does not
    split: the GP path works on the pooled tile (``1/p^2`` of its pixels),
    so the batch the pipeline hands it (at most ``batch_size`` tiles, per
    worker when sharded) is already cache resident, and each extra forward
    only adds per-call overhead.

    A compiled executor's fused convs split every forward into work units
    fixed by the geometry and run them on the process's compute team
    (:func:`repro.nn.backends.compute_team`), a team of one unless sized: a
    serial pipeline sizes it from its ``blas_threads`` budget for each call,
    a pool worker once for its life; any team size gives the same bits.
    """

    #: Target activation bytes per micro-batch (measured sweet spot: 2 tiles
    #: of 64x64 at ~32 channels on one x86 core).
    MICRO_BATCH_BUDGET_BYTES = 2 * 1024 * 1024
    #: Coarse per-sample activation width estimate used to size micro-batches,
    #: compiled or not.  Compiled forwards run their fused convs on the
    #: compute team, which pays one dispatch per conv and forward: on the
    #: checked-in DOINN at 64 px, 2 tiles per forward took 9.1 ms/tile against
    #: 10.8 at 1 (a 2-vCPU host), so compiled graphs take the same 2 tiles.
    #: A 256 px mask still runs one per forward.
    ACTIVATION_CHANNEL_ESTIMATE = 32

    def __init__(
        self,
        model: Module,
        compile: bool = False,
        backend: str | None = None,
    ) -> None:
        if not isinstance(model, Module):
            raise TypeError(f"ModelExecutor expects an nn.Module, got {type(model).__name__}")
        # Lane resolution (explicit arg > REPRO_BACKEND > float64) happens
        # here, at the executor boundary — compile_model itself never reads
        # the env var, so direct compiles stay environment-immune.
        dtype = resolve_backend(backend)
        default = BACKENDS[DEFAULT_BACKEND]
        if isinstance(model, FusedInferenceGraph):
            compile = True
        elif compile:
            model = compile_model(model)
        if isinstance(model, FusedInferenceGraph):
            # An explicit lane always applies; an env-selected one only to a
            # graph never converted (the caller's explicit compile wins over
            # the environment).
            explicit = backend is not None
            current = model.dtype
            if (current is None and (explicit or dtype != default)) or (explicit and current != dtype):
                model.convert(dtype.name)
            #: Working dtype of the compiled graph's compute lane.
            self.dtype = model.dtype if model.dtype is not None else dtype
        else:
            if backend is not None and dtype != default:
                raise ValueError(
                    f"backend {backend!r} requires the compiled fused path; pass compile=True"
                )
            # An env-resolved non-default lane is ignored on the unfused path
            # (there is nothing to convert); explicit requests raise above.
            self.dtype = default
        self.model = model
        self.compiled = bool(compile)
        self.on_team = self.compiled
        base = model.source_name if isinstance(model, FusedInferenceGraph) else type(model).__name__
        self.name = f"{base}[compiled]" if self.compiled else base

    def _micro_batch(self, height: int, width: int) -> int:
        """Samples per micro-batch; never 0, however large the tile geometry.

        A single sample whose activations exceed the whole budget (e.g. a
        4096x4096 tile) must still run — the floor division is clamped to 1,
        and a degenerate zero-area geometry cannot divide by zero.  The
        float32 lane's samples are half the bytes, so its micro-batches are
        twice as large.
        """
        per_sample = self.ACTIVATION_CHANNEL_ESTIMATE * height * width * self.dtype.itemsize
        return max(1, self.MICRO_BATCH_BUDGET_BYTES // max(per_sample, 1))

    @staticmethod
    def _finalize(out: np.ndarray) -> np.ndarray:
        """Executor boundary: predictions leave in float64 whatever the lane.

        Keeps stitching/splicing arithmetic (and the pooled shared-memory
        output specs) dtype-stable across lanes; within a lane the cast is
        per-sample and partition invariant, so pooled/sharded plans stay
        bit-identical to serial.
        """
        return out if out.dtype == np.float64 else out.astype(np.float64)

    @property
    def supports_stitching(self) -> bool:
        """True when the model has the GP/LP/IR decomposition of DOINN."""
        return hasattr(self.model, "global_perception") and hasattr(self.model, "reconstruction")

    @property
    def pool_factor(self) -> int:
        """GP pooling factor (resolution of the stitched feature map)."""
        return int(self.model.config.pool_factor)

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        micro = self._micro_batch(batch.shape[-2], batch.shape[-1])
        with eval_mode(self.model), no_grad():
            if batch.shape[0] <= micro:
                return self._finalize(self.model(Tensor(batch)).numpy())
            return self._finalize(
                np.concatenate(
                    [
                        self.model(Tensor(batch[start : start + micro])).numpy()
                        for start in range(0, batch.shape[0], micro)
                    ]
                )
            )

    # -- DOINN path hooks for the large-tile stitching plan ------------- #
    def run_gp(self, tiles: np.ndarray) -> np.ndarray:
        """Global-perception features of a tile batch ``(B, 1, t, t)``.

        One GP forward over the whole batch it is handed: the pipeline
        already bounds that batch at ``batch_size`` tiles (per worker when
        sharded).  On a compiled engine the forward is the fused GP op of
        :class:`repro.nn.fusion.CompiledFourierUnit`.  Both forms are partition
        invariant, so any batch split gives the same bits.  Only the GP
        submodule is switched to eval mode: walking the whole model on every
        call cost about a fifth of a compiled 8-tile GP call.
        """
        gp = self.model.global_perception
        with eval_mode(gp), no_grad():
            return self._finalize(gp(Tensor(tiles)).numpy())

    def run_reconstruction(self, gp: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """LP + image reconstruction on full-size masks with stitched GP maps.

        ``gp`` is ``(B, C, H/p, W/p)``, ``masks`` is ``(B, 1, H, W)``; the LP
        and IR paths are translation invariant, so they run on the full mask
        directly (paper eq. (14)), in the same cache-resident micro-batches
        as :meth:`run_batch`.
        """
        micro = self._micro_batch(masks.shape[-2], masks.shape[-1])
        with eval_mode(self.model), no_grad():
            outputs = []
            for start in range(0, masks.shape[0], micro):
                mask_mb = Tensor(masks[start : start + micro])
                lp = (
                    self.model.local_perception(mask_mb)
                    if getattr(self.model, "local_perception", None) is not None
                    else None
                )
                outputs.append(
                    self.model.reconstruction(Tensor(gp[start : start + micro]), lp).numpy()
                )
            return self._finalize(outputs[0] if len(outputs) == 1 else np.concatenate(outputs))


class SimulatorExecutor(Executor):
    """Executor over the golden Hopkins/SOCS lithography simulator."""

    arbitrary_size = True
    #: The aerial image's (mask group, kernel chunk) units run on the team.
    on_team = True

    def __init__(self, simulator, output: str = "resist") -> None:
        if output not in ("resist", "aerial"):
            raise ValueError(f"output must be 'resist' or 'aerial', got {output!r}")
        self.simulator = simulator
        self.output = output
        self.name = f"{type(simulator).__name__}[{output}]"
        self.workspace = AerialWorkspace()

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        aerial = self.simulator.aerial(batch[:, 0], workspace=self.workspace)
        if self.output == "aerial":
            return aerial[:, None]
        return self.simulator.resist.develop(aerial)[:, None]

    # -- hooks for the incremental (patched) re-simulation plan --------- #
    @property
    def influence_radius(self) -> int:
        """Pixels a mask edit can reach in the aerial image.

        The Hopkins aerial is a linear convolution with kernels of finite
        support ``s`` (zero-padded FFTs, :mod:`repro.litho.hopkins`), so an
        output pixel depends only on mask pixels within ``(s - 1) // 2``.
        """
        return (self.simulator.kernels.support - 1) // 2

    @property
    def field_planes(self) -> int:
        """Number of packed SOCS field planes of one mask."""
        return self.simulator.kernels.packed_kernels().shape[0]

    def fft_shape(self, shape: tuple[int, int]) -> tuple[int, int]:
        """The FFT layout of an ``(H, W)`` mask's field planes
        (:func:`~repro.litho.hopkins.padded_fft_shape`)."""
        return padded_fft_shape(shape, self.simulator.kernels.support)

    def run_aerial(self, tiles: np.ndarray, fields: np.ndarray | None = None) -> np.ndarray:
        """Aerial intensity of a mask batch ``(B, 1, H, W)``.

        Same batched single-FFT path as :meth:`run_batch`, without the resist
        threshold; the inverse FFTs run in ``fields`` ``(B, planes, >= Fh,
        >= Fw)`` (:meth:`fft_shape`), which keeps the field planes at FFT
        layout.  The patched plan refreshes its cache with it and develops
        once at the end (:meth:`finalize_patched`).
        """
        aerial = self.simulator.aerial(tiles[:, 0], workspace=self.workspace, fields=fields)
        return aerial[:, None]

    def patch_fields(self, fields: np.ndarray, deltas: np.ndarray, origins: np.ndarray) -> None:
        """Add the field planes of mask deltas into ``fields`` (in place)."""
        add_field_deltas(fields, deltas, origins, self.simulator.kernels, self.workspace)

    def aerial_of_fields(self, fields: np.ndarray) -> np.ndarray:
        """Aerial intensity of field planes ``(..., planes, h, w)``."""
        return aerial_from_fields(fields, self.simulator.kernels, dose=self.simulator.dose)

    def finalize_patched(self, aerial: np.ndarray) -> np.ndarray:
        """Turn the cached full-image aerial into this executor's output."""
        if self.output == "aerial":
            return aerial.copy()
        return self.simulator.resist.develop(aerial)


def as_executor(
    engine,
    output: str = "resist",
    compile: bool = False,
    backend: str | None = None,
) -> Executor:
    """Adapt a model, simulator or executor to the :class:`Executor` interface.

    ``compile=True`` compiles a model engine into a fused inference graph
    (see :func:`repro.nn.compile_model`); it is rejected for engines that have
    no fused path rather than silently ignored.  ``backend`` selects the
    compute lane of the compiled graph (see :mod:`repro.nn.backends`); like
    ``compile`` it only applies to raw model engines.
    """
    if isinstance(engine, Executor):
        if compile:
            raise ValueError(
                "compile=True requires a raw model engine; wrap the model with "
                "ModelExecutor(model, compile=True) before building executors"
            )
        if backend is not None:
            raise ValueError(
                "backend= requires a raw model engine; construct "
                "ModelExecutor(model, compile=True, backend=...) directly"
            )
        return engine
    if isinstance(engine, Module):
        return ModelExecutor(engine, compile=compile, backend=backend)
    if hasattr(engine, "aerial") and hasattr(engine, "resist"):
        if compile:
            raise ValueError("compile=True requires a model engine; the golden simulator has no fused path")
        if backend is not None:
            raise ValueError(
                "backend lanes apply to model engines; the golden simulator has no fused path"
            )
        return SimulatorExecutor(engine, output=output)
    raise TypeError(
        f"cannot build an executor from {type(engine).__name__}; expected an "
        "nn.Module, a LithoSimulator or an Executor"
    )
