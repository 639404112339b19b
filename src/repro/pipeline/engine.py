"""Batch-first inference pipeline: tile -> batch -> stitch.

:class:`InferencePipeline` is the single high-throughput execution engine
every inference consumer (evaluation, OPC, experiments, examples) routes
through.  Given masks of arbitrary size — one image, a batch, or full-chip
tiles larger than the engine's native tile — it

1. **plans** the work: masks at (or below) the native tile size run directly;
   oversized masks are cut into half-overlapping training-size tiles via
   :mod:`repro.layout.tiling` (paper §3.2, eq. (12)-(14)),
2. **batches** the model/simulator forwards with a configurable
   ``batch_size`` knob, and
3. **stitches** the core regions of the per-tile global-perception features
   back to full size before running the translation-invariant local
   perception and reconstruction paths on the whole mask.

The stitched plan reproduces the seed ``LargeTileSimulator`` algorithm
bit-for-bit for a single mask (same tile order, same GP batch partitioning,
same core margin), while batching tile forwards and full-mask reconstructions
across the whole input stream.  Simulator engines are size-agnostic (Hopkins
convolution) and run the batched single-FFT aerial path with cached SOCS
transfer functions.

Every run returns a :class:`PipelineResult` carrying the predictions plus
:class:`PipelineStats` (tiles, batches, wall time) so throughput benches and
regression trackers can observe the execution plan.

Choosing batch size and workers
-------------------------------
Two independent knobs control throughput:

* ``batch_size`` — tiles per executor invocation.  The conv hot path packs
  patches through a zero-copy sliding-window view with one cache-resident
  GEMM per sample, and :class:`~repro.pipeline.executors.ModelExecutor`
  splits large batches into cache-sized micro-batches internally, so bigger
  batches only help.  Larger batches amortize per-call planning overhead
  and feed the worker pool bigger shards; past the micro-batch size there
  is no cache penalty for going big.
* ``num_workers`` — processes the executor's batches are sharded across (see
  :mod:`repro.pipeline.parallel`; also settable fleet-wide via the
  ``REPRO_NUM_WORKERS`` environment variable).  Parallel output is
  bit-identical to serial.  Scaling follows the physical cores: on a
  multi-core host expect near-linear gains up to the core count (the
  acceptance bench requires >= 1.8x with 4 workers on >= 4 cores), while on
  a single-core host the sharding overhead makes workers a small net loss —
  leave the knob at 0 there.  ``benchmarks/bench_pipeline_throughput.py``
  sweeps both knobs and writes the measured table to
  ``artifacts/results/pipeline_throughput.txt``.

Pooled batches travel through a persistent, generation-tagged shared-memory
ring (:mod:`repro.pipeline.streaming`) that is reused across pipeline calls,
so repeated-call workloads (OPC iteration loops, full-chip tile streams)
skip the per-call ``shm_open``/``mmap``/copy-warming in the parent and every
worker.  The stitched §3.2 plan hands the GP tile stream of a large mask
(or mask batch) to the executor in ``batch_size`` tiles per worker: a
serial pipeline runs ``batch_size`` tiles per call, and a pool takes
``num_workers x batch_size`` super-batches, so the tiles of a single mask
shard across all workers (one barrier + one segment fill per super-batch,
while the shared segments stay bounded at workers x batch_size tiles
however large the layout is).  Each worker's shard is about ``batch_size``
tiles, which one GP forward keeps cache-resident, and the GP path is
partition invariant, so the stitched output is bit-identical however the
stream is cut.

A third, orthogonal knob is ``compile`` — compile a model engine once into a
fused inference graph (conv->BN->LeakyReLU folded into single passes with a
pad-once buffer cache, :mod:`repro.nn.fusion`) and run every batch through
it.  Fused execution is per-sample like the unfused hot path, so it composes
with both knobs above and stays bit-identical across worker shardings.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..layout.tiling import TileSpec, extract_tiles, stitch_cores, tile_grid
from ..nn.backends import compute_threads, set_blas_threads
from .cache import IncrementalState
from .config import ExecutionConfig, ExecutionPlan
from .executors import Executor, as_executor
from .parallel import WorkerPoolExecutor

__all__ = ["InferencePipeline", "PipelineResult", "PipelineStats"]


@dataclass
class PipelineStats:
    """Observable execution plan of one pipeline run."""

    engine: str = ""
    mode: str = "native"          # "native" | "stitched" | "patched"
    num_masks: int = 0
    num_tiles: int = 0            # GP tiles executed (stitched mode only)
    num_batches: int = 0          # executor invocations
    sharded_tiles: bool = False   # GP tile stream sharded over a pool of > 1 workers
    seconds: float = 0.0
    dirty_tiles: int = 0          # dirty blocks patched (patched mode only)
    chunks_retried: int = 0       # pooled chunks that needed another attempt
    workers_respawned: int = 0    # dead worker processes replaced mid-run
    degraded_runs: int = 0        # pooled dispatches degraded to in-process
    fault_events: int = 0         # injected faults fired (chaos testing only)

    @property
    def masks_per_second(self) -> float:
        """Throughput of the run; 0.0 when nothing ran.

        The elapsed time is clamped to one timer tick so a smoke run that
        finishes below the clock resolution can neither divide by zero nor
        report infinite throughput.
        """
        if self.num_masks == 0:
            return 0.0
        return self.num_masks / max(self.seconds, 1e-9)


@dataclass
class PipelineResult:
    """Predictions plus the stats of the run that produced them."""

    outputs: np.ndarray           # always (N, 1, H, W)
    stats: PipelineStats = field(default_factory=PipelineStats)


class InferencePipeline:
    """Unified batched inference over models and litho simulators.

    Parameters
    ----------
    engine:
        A learned model (:class:`repro.nn.Module`), a golden
        :class:`~repro.litho.simulator.LithoSimulator`, or a prebuilt
        :class:`~repro.pipeline.executors.Executor`.
    config:
        The :class:`~repro.pipeline.config.ExecutionConfig` owning every
        execution knob; the only way to configure a pipeline.  It resolves
        once (explicit field > ``REPRO_*`` environment knob > default), and
        the resolved config is available as ``pipeline.config``.  Its fields:

        * ``tile_size`` — native (training) tile size of the engine.  Masks
          larger than this trigger the §3.2 large-tile plan when the engine
          supports it; ``None`` disables tiling entirely.
        * ``batch_size`` — default number of tiles / masks per executor
          invocation.
        * ``optical_diameter_pixels`` — optical ambit sizing the stitching
          core margin (``d`` in the paper; only the region further than
          ``d/2`` from a tile edge is trusted).
        * ``num_workers`` / ``retry`` / ``blas_threads`` —
          the worker pool (:mod:`repro.pipeline.parallel`): processes the
          batches shard across (values <= 1 run in-process; each batch is
          split evenly over them), the supervision policy
          (:class:`~repro.pipeline.supervision.RetryPolicy`: per-chunk
          deadline, retry budget, graceful in-process degradation), and the
          thread budget.  The pipeline builds its pool from exactly these
          resolved values.  A serial compiled engine runs the fused conv
          kernels of each call, and a serial simulator engine the aerial
          image's (mask group, kernel chunk) units, on a compute team of
          ``blas_threads`` threads with BLAS capped at one for that call
          only (:func:`repro.nn.backends.compute_threads`); pool workers of
          either engine size their own team once; an unfused model takes
          it as a BLAS thread cap.  The default is 1 per worker when
          pooled, the usable core count up to
          :data:`repro.nn.backends.DEFAULT_TEAM_LIMIT` when serial and
          compiled or simulating, and 0 (a team of one, the BLAS library
          left alone) otherwise, so ``workers x threads`` never
          oversubscribes.
        * ``compile`` / ``backend`` — run a model engine as a fused inference
          graph (:func:`repro.nn.compile_model`, within 1e-12 of the unfused
          path) on the ``float64`` (bit-identical) or ``float32`` lane;
          ``backend=None`` defers to ``REPRO_BACKEND`` at the executor.
    """

    def __init__(self, engine, config: ExecutionConfig | None = None) -> None:
        if config is None:
            config = ExecutionConfig()
        #: The resolved execution config of this pipeline (one resolution
        #: pass: explicit field > ``REPRO_*`` knob > default).
        self.config = config.resolve()
        resolved = self.config
        self.executor: Executor = as_executor(
            engine, compile=bool(resolved.compile), backend=resolved.backend
        )
        self.compiled = getattr(self.executor, "compiled", False)
        #: Whether the engine runs on the compute team (a compiled model or
        #: the golden simulator): its thread-budget default depends on it.
        self.on_team = getattr(self.executor, "on_team", False)
        # What a pre-built engine already fixed wins over the config, so the
        # config describes the pipeline that runs: a pre-compiled engine is a
        # compiled pipeline, and a pre-built pool runs its own workers,
        # retries and threads.
        built: dict = {}
        if self.compiled and not resolved.compile:
            built["compile"] = True
        if isinstance(self.executor, WorkerPoolExecutor):
            pool = self.executor
            built.update(num_workers=pool.num_workers, retry=pool.retry)
            if pool.num_workers > 1:
                # A pool of one runs in the caller, on this pipeline's budget.
                built["blas_threads"] = pool.blas_threads
        self.config = resolved = config.merged(**built).resolve(team=self.on_team)
        self.num_workers = resolved.num_workers
        if self.num_workers > 1 and not isinstance(self.executor, WorkerPoolExecutor):
            self.executor = WorkerPoolExecutor(
                self.executor,
                num_workers=resolved.num_workers,
                retry=resolved.retry,
                blas_threads=resolved.blas_threads,
            )
        # Pool workers get the thread budget through the pool initializer
        # (the parent's is left alone).  A serial pipeline on the team sizes
        # the team per call (_threads); any other serial one uses the budget
        # as a plain BLAS cap, where the default 0 leaves the library alone.
        if self.num_workers <= 1 and not self.on_team and resolved.blas_threads:
            set_blas_threads(resolved.blas_threads)
        #: Compute lane dtype of the executor (None for simulator engines).
        self.dtype = getattr(self.executor, "dtype", None)
        self.tile_size = resolved.tile_size
        self.batch_size = resolved.batch_size
        self.optical_diameter_pixels = resolved.optical_diameter_pixels
        if self.tile_size is not None and self.executor.supports_stitching:
            pool = self.executor.pool_factor
            if self.tile_size % pool:
                raise ValueError(
                    f"tile_size {self.tile_size} must be divisible by the GP pooling factor {pool}"
                )

    @property
    def name(self) -> str:
        return self.executor.name

    def close(self) -> None:
        """Release pooled resources (worker processes); a no-op when serial."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "InferencePipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def plan(
        self,
        masks: np.ndarray,
        batch_size: int | None = None,
        stitch: bool | None = None,
    ) -> ExecutionPlan:
        """The :class:`~repro.pipeline.config.ExecutionPlan` for ``masks``.

        Everything :meth:`run` is about to do, known up front: native vs
        stitched mode, the tile grid and super-batch shape, and
        pooled-vs-serial dispatch.  The plan is serializable
        (``to_dict``/``from_dict`` round-trip through JSON) and
        :meth:`execute` carries it out — ``run()`` is exactly
        ``execute(plan(masks), masks)``.
        """
        batch4, _ = self._normalize(masks)
        return self._build_plan(batch4, self._batch_size(batch_size), stitch)

    def execute(self, plan: ExecutionPlan, masks: np.ndarray) -> PipelineResult:
        """Carry out a previously built plan over ``masks``.

        The masks must match the plan's ``num_masks`` / ``mask_shape`` and
        the plan must have been built for this engine; anything else raises
        :class:`ValueError` (a plan is not transferable across engines).
        """
        batch4, _ = self._normalize(masks)
        n = batch4.shape[0]
        if plan.engine != self.name:
            raise ValueError(
                f"plan was built for engine {plan.engine!r}, not {self.name!r}"
            )
        if n != plan.num_masks or batch4.shape[-2:] != plan.mask_shape:
            raise ValueError(
                f"plan covers {plan.num_masks} mask(s) of shape {plan.mask_shape}, "
                f"got {n} of shape {batch4.shape[-2:]}"
            )
        batch_size = self._batch_size(plan.batch_size)
        stats = PipelineStats(engine=self.name, mode=plan.mode, num_masks=n)
        if n == 0:
            return PipelineResult(outputs=batch4.copy(), stats=stats)
        robustness = self._robustness_snapshot()
        start = time.perf_counter()
        with self._threads():
            outputs = (
                self._run_stitched(batch4, batch_size, stats)
                if plan.mode == "stitched"
                else self._run_native(batch4, batch_size, stats)
            )
        stats.seconds = time.perf_counter() - start
        self._record_robustness(stats, robustness)
        return PipelineResult(outputs=outputs, stats=stats)

    def run(
        self,
        masks: np.ndarray,
        batch_size: int | None = None,
        stitch: bool | None = None,
    ) -> PipelineResult:
        """Run the engine over ``masks`` and return predictions + stats.

        ``masks`` may be a single 2-D image ``(H, W)``, a 3-D batch
        ``(N, H, W)`` or a 4-D batch ``(N, 1, H, W)``; ``outputs`` is always
        ``(N, 1, H, W)`` (use :meth:`predict` to mirror the input layout).
        ``stitch=False`` forces the naive whole-image path regardless of size
        (the Table 4 "DOINN" row); ``None`` lets the planner decide.
        Equivalent to :meth:`plan` followed by :meth:`execute`.
        """
        batch4, _ = self._normalize(masks)
        if batch4.shape[0] == 0:
            return PipelineResult(
                outputs=batch4.copy(),
                stats=PipelineStats(engine=self.name, num_masks=0),
            )
        execution_plan = self._build_plan(batch4, self._batch_size(batch_size), stitch)
        return self.execute(execution_plan, batch4)

    def predict(
        self,
        masks: np.ndarray,
        batch_size: int | None = None,
        stitch: bool | None = None,
    ) -> np.ndarray:
        """Predictions with the same array layout as the input masks."""
        batch4, restore = self._normalize(masks)
        outputs = self.run(batch4, batch_size=batch_size, stitch=stitch).outputs
        return restore(outputs)

    def predict_naive(self, masks: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Whole-image predictions with tiling disabled (Table 4 "DOINN" row)."""
        return self.predict(masks, batch_size=batch_size, stitch=False)

    def gp_features(self, mask: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Stitched global-perception feature map of one 2-D mask (eq. (13)).

        Exposed for the large-tile scheme's invariant tests: every core-region
        entry is computed from a training-size window, so the Fourier-unit
        weights only ever see the spectrum they were trained on.
        """
        mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim != 2:
            raise ValueError("gp_features expects a single 2-D mask image")
        batch_size = self._batch_size(batch_size)
        self._require_stitchable()
        self._validate_tiled_size(mask.shape)
        with self._threads():
            return self._gp_features_one(mask, batch_size, PipelineStats())

    # ------------------------------------------------------------------ #
    # Incremental (patched) re-simulation plan
    # ------------------------------------------------------------------ #
    def incremental_state(self, shape: tuple[int, int]) -> IncrementalState:
        """Build the field-delta state for :meth:`predict_patched` over ``shape``.

        Only the golden simulator patches: each of its SOCS field planes is
        linear in the mask, so a mask edit changes the cached planes by the
        planes of the edit (see :mod:`repro.pipeline.cache`).  Engines
        without field planes raise :class:`ValueError`.
        """
        engine = self._patch_engine()
        h, w = int(shape[0]), int(shape[1])
        return IncrementalState(
            shape=(h, w), radius=engine.influence_radius, planes=engine.field_planes
        )

    def predict_patched(
        self, mask: np.ndarray, state: IncrementalState, candidates: np.ndarray | None = None
    ) -> np.ndarray:
        """Prediction of one 2-D mask, patching the cached fields with its edit.

        ``state`` (from :meth:`incremental_state`) carries a copy of the
        previously simulated mask and its cached SOCS field planes and aerial
        image.  The blocks whose pixels changed add their field deltas to
        the planes, and the intensity is recomputed where those reach
        (:mod:`repro.pipeline.cache`).  The first call, and any call whose
        dirty blocks would cost more than a whole-mask simulation by the
        block-cost rule, refresh the cache in full instead.  Everything runs
        in this process: a pooled pipeline's workers take no part.

        ``candidates`` (flat pixel indices) may name the only pixels where
        ``mask`` can differ from the previous call's, as the OPC loop's mask
        painter does; the dirty blocks are then found among them
        (:meth:`IncrementalState.dirty_blocks`) instead of over the whole
        mask.

        Full-refresh and clean calls return :meth:`predict`'s bits; patched
        calls match it up to floating-point round-off (equal resist images
        in every pinned equivalence run).  A state filled by another
        simulator raises :class:`ValueError` rather than mix two aerials.
        """
        mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim != 2 or mask.shape != state.shape:
            raise ValueError(
                f"predict_patched expects one 2-D mask of shape {state.shape}, "
                f"got {mask.shape}"
            )
        engine = self._patch_engine()
        if state.engine is not None and state.engine is not engine.simulator:
            raise ValueError(
                "state holds the fields of another simulator; build one per "
                "pipeline with incremental_state"
            )
        stats = PipelineStats(engine=self.name, mode="patched", num_masks=1)
        start = time.perf_counter()
        counters = state.counters
        with self._threads():
            dirty = state.dirty_blocks(mask, candidates)
            try:
                if state.aerial is None or state.prefer_refresh(dirty.size):
                    state.refresh(engine, mask)
                    counters.full_refreshes += 1
                    stats.num_batches = 1
                elif dirty.size:
                    state.patch(engine, mask, dirty)
                    counters.patched_calls += 1
                    counters.tiles_simulated += dirty.size
                    counters.tiles_skipped += state.n_tiles - dirty.size
                    stats.dirty_tiles = int(dirty.size)
                    stats.num_batches = 1
                else:
                    state.record_clean()
            except BaseException:
                state.aerial = None   # the caches may be half updated: refresh next time
                raise
            output = engine.finalize_patched(state.cached_map)
        stats.seconds = time.perf_counter() - start
        state.last_stats = stats
        return output

    def _patch_engine(self):
        """The in-process simulator executor of the patched plan."""
        engine = self.executor
        if isinstance(engine, WorkerPoolExecutor):
            engine = engine.inner
        if not hasattr(engine, "patch_fields"):
            raise ValueError(
                f"engine {self.name} has no SOCS field planes; "
                "incremental re-simulation applies to the golden simulator only"
            )
        return engine

    # ------------------------------------------------------------------ #
    # Planning helpers
    # ------------------------------------------------------------------ #
    def _threads(self):
        """The thread scope of one call: a serial pipeline whose engine runs
        on the team (a compiled model's fused convs, the simulator's aerial
        image) runs on a compute team of its ``blas_threads`` with BLAS
        capped at one, both restored on exit; every other pipeline runs as
        the process is."""
        if self.on_team and self.num_workers <= 1:
            return compute_threads(self.config.blas_threads)
        return contextlib.nullcontext()

    def _batch_size(self, batch_size: int | None) -> int:
        """A call's batch size: the pipeline's own when ``None``."""
        if batch_size is None:
            return self.batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        return batch_size

    def _robustness_snapshot(self):
        """Cumulative supervision counters before a run (pooled executors only)."""
        counters = getattr(self.executor, "robustness", None)
        return None if counters is None else (counters, counters.snapshot())

    @staticmethod
    def _record_robustness(stats: PipelineStats, snapshot) -> None:
        """Write this run's share of the supervision counters onto ``stats``."""
        if snapshot is None:
            return
        counters, before = snapshot
        delta = counters.delta(before)
        stats.chunks_retried = delta.chunks_retried
        stats.workers_respawned = delta.workers_respawned
        stats.degraded_runs = delta.degraded_runs
        stats.fault_events = delta.fault_events

    @staticmethod
    def _normalize(masks: np.ndarray):
        """Coerce input to ``(N, 1, H, W)`` plus a layout-restoring closure."""
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim == 2:
            return masks[None, None], lambda out: out[0, 0]
        if masks.ndim == 3:
            return masks[:, None], lambda out: out[:, 0]
        if masks.ndim == 4:
            if masks.shape[1] != 1:
                raise ValueError(f"expected a single mask channel, got shape {masks.shape}")
            return masks, lambda out: out
        raise ValueError(f"masks must be 2-D, 3-D or 4-D, got shape {masks.shape}")

    def _plan_stitched(self, batch4: np.ndarray, stitch: bool | None) -> bool:
        if stitch is False:
            return False
        h, w = batch4.shape[-2:]
        oversized = (
            self.tile_size is not None
            and not self.executor.arbitrary_size
            and max(h, w) > self.tile_size
        )
        if stitch is True:
            self._require_stitchable()
            return True
        return oversized and self.executor.supports_stitching

    def _build_plan(
        self, batch4: np.ndarray, batch_size: int, stitch: bool | None
    ) -> ExecutionPlan:
        """Build the :class:`ExecutionPlan` of one invocation.

        The batch math mirrors :meth:`_run_native` / :meth:`_run_stitched` /
        :meth:`_run_gp_batches` exactly, so an executed run's
        :class:`PipelineStats` match the plan field for field.
        """
        n = batch4.shape[0]
        h, w = batch4.shape[-2:]
        common = dict(
            engine=self.name,
            num_masks=n,
            mask_shape=(h, w),
            batch_size=batch_size,
            num_workers=self.num_workers,
        )
        stitched = n > 0 and self._plan_stitched(batch4, stitch)
        if not stitched:
            return ExecutionPlan(
                mode="native",
                num_batches=-(-n // batch_size) if n else 0,
                **common,
            )
        self._validate_tiled_size((h, w))
        specs = tile_grid((h, w), self.tile_size)
        tiles_per_mask = len(specs)
        total_tiles = n * tiles_per_mask
        super_batch = batch_size * max(1, self.num_workers)
        gp_batches = -(-total_tiles // super_batch)
        reconstruction_batches = -(-n // batch_size)
        return ExecutionPlan(
            mode="stitched",
            tile_size=self.tile_size,
            tile_grid=(max(s.row for s in specs) + 1, max(s.col for s in specs) + 1),
            tiles_per_mask=tiles_per_mask,
            num_tiles=total_tiles,
            num_batches=gp_batches + reconstruction_batches,
            super_batch=super_batch,
            sharded_tiles=self.num_workers > 1,
            **common,
        )

    def _require_stitchable(self) -> None:
        if self.tile_size is None:
            raise ValueError("stitched execution requires a tile_size")
        if not self.executor.supports_stitching:
            raise ValueError(f"engine {self.name} does not support GP core stitching")

    def _validate_tiled_size(self, shape: tuple[int, int]) -> None:
        h, w = shape
        if h % self.tile_size or w % self.tile_size:
            raise ValueError(
                f"mask size {(h, w)} must be a multiple of the training tile size "
                f"{self.tile_size}"
            )

    # ------------------------------------------------------------------ #
    # Execution plans
    # ------------------------------------------------------------------ #
    def _run_native(self, batch4: np.ndarray, batch_size: int, stats: PipelineStats) -> np.ndarray:
        outputs = []
        for start in range(0, batch4.shape[0], batch_size):
            outputs.append(self.executor.run_batch(batch4[start : start + batch_size]))
            stats.num_batches += 1
        return np.concatenate(outputs, axis=0)

    def _run_stitched(self, batch4: np.ndarray, batch_size: int, stats: PipelineStats) -> np.ndarray:
        self._require_stitchable()
        n, _, h, w = batch4.shape
        self._validate_tiled_size((h, w))

        # Phase 1: tiled global perception (eq. (13)).  All masks share one
        # tile grid (same size), so their tiles are concatenated into one
        # stream and the GP forwards are batched across it — for a single
        # mask this degenerates to the seed per-mask partitioning exactly.
        per_mask = None
        all_tiles = []
        specs = None
        for i in range(n):
            tiles, specs = extract_tiles(batch4[i, 0], self.tile_size)
            per_mask = tiles.shape[0]
            all_tiles.append(tiles)
        gp_tiles = self._run_gp_batches(np.concatenate(all_tiles, axis=0), batch_size, stats)
        gp = np.stack(
            [
                self._stitch(gp_tiles[i * per_mask : (i + 1) * per_mask], specs, (h, w))
                for i in range(n)
            ]
        )
        # Phase 2: local perception + reconstruction on the full masks, batched
        # across the input stream (eq. (14): both paths are translation
        # invariant, so nothing else changes at the large size).
        outputs = []
        for start in range(0, n, batch_size):
            outputs.append(
                self.executor.run_reconstruction(
                    gp[start : start + batch_size], batch4[start : start + batch_size]
                )
            )
            stats.num_batches += 1
        return np.concatenate(outputs, axis=0)

    def _run_gp_batches(
        self, tiles: np.ndarray, batch_size: int, stats: PipelineStats
    ) -> np.ndarray:
        """GP forwards over a tile stream ``(n, t, t)``.

        ``run_gp`` takes ``(B, 1, t, t)`` and is partition invariant, so any
        cut of the stream gives the same bits.
        """
        # batch_size tiles per worker per call: a pool shards every tile of
        # every mask — the tiles of a *single* large mask too — with one
        # barrier and one segment fill per super-batch, and the bound keeps
        # the shared segments (and the ring's grow-only capacity) at
        # workers x batch_size tiles however large the layout stream is.
        stats.sharded_tiles = self.num_workers > 1
        stream = batch_size * max(1, self.num_workers)
        gp_outputs = []
        for start in range(0, tiles.shape[0], stream):
            gp_outputs.append(self.executor.run_gp(tiles[start : start + stream][:, None]))
            stats.num_batches += 1
        stats.num_tiles += tiles.shape[0]
        return gp_outputs[0] if len(gp_outputs) == 1 else np.concatenate(gp_outputs, axis=0)

    def _stitch(self, gp_tiles: np.ndarray, specs, shape: tuple[int, int]) -> np.ndarray:
        """Stitch one mask's pooled GP tile cores back to full size.

        Tile positions are re-expressed at the pooled resolution and only the
        core further than half the optical diameter from any tile edge is
        kept.
        """
        pool = self.executor.pool_factor
        tile = self.tile_size
        pooled_specs = [
            TileSpec(row=s.row, col=s.col, y0=s.y0 // pool, x0=s.x0 // pool, size=tile // pool)
            for s in specs
        ]
        margin = max(1, int(np.ceil(self.optical_diameter_pixels / (2 * pool))))
        h, w = shape
        return stitch_cores(gp_tiles, pooled_specs, (h // pool, w // pool), margin)

    def _gp_features_one(
        self, mask: np.ndarray, batch_size: int, stats: PipelineStats
    ) -> np.ndarray:
        """Tile one mask, run GP in batches, stitch the pooled cores."""
        tiles, specs = extract_tiles(mask, self.tile_size)
        gp_tiles = self._run_gp_batches(tiles, batch_size, stats)
        return self._stitch(gp_tiles, specs, mask.shape)
