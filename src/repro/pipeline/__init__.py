"""Batch-first inference pipeline (tiling -> batched execution -> stitching).

The single high-throughput engine every inference consumer routes through;
see :mod:`repro.pipeline.engine` for the architecture overview.

Every knob below lives on one document: :class:`ExecutionConfig`
(:mod:`repro.pipeline.config`).  Consumers pass
``InferencePipeline(engine, config=ExecutionConfig(...))``; the config
resolves exactly once (explicit field > ``REPRO_*`` env > default, with
per-field provenance and structured :class:`ConfigError`\\ s), and
``pipeline.plan(masks)`` returns the serializable :class:`ExecutionPlan`
that ``execute`` carries out — see ``docs/architecture.md`` for the
config -> plan -> execute flow.  The config is the only route: the
pipeline takes no per-knob keyword arguments.

Throughput knobs (all fields of :class:`ExecutionConfig`, honoured by every
driver that builds a pipeline — evaluation, OPC, experiment harnesses,
benchmarks):

``batch_size``
    Tiles / masks per executor invocation (executors micro-batch
    full-resolution forwards internally to stay cache-resident, so bigger
    batches only help; GP runs on pooled tiles and takes the whole batch).
``num_workers`` / ``REPRO_NUM_WORKERS``
    Worker processes the executor's batches are sharded across
    (:mod:`repro.pipeline.parallel`); 0/1 runs serial in-process.  The
    environment variable parallelizes a whole fleet without touching call
    sites; an explicit field always wins.  Batches travel to the workers
    through a persistent, generation-tagged shared-memory ring
    (:mod:`repro.pipeline.streaming`) reused across pipeline calls.  A
    pooled stitched large-tile plan hands the pool ``num_workers x
    batch_size`` GP tiles per call, so the tiles of a *single* large mask
    shard across all workers.
``compile``
    Run a model engine as a fused inference graph (:mod:`repro.nn.fusion`).
``backend`` / ``REPRO_BACKEND``
    Compute lane of the compiled fused graph (:mod:`repro.nn.backends`):
    ``float64`` (default, bit-identical to the uncompiled path), ``float32``
    (folded weights narrowed at compile time; calibrated-tolerance
    equivalence).  Only engages on compiled model engines; the cache key
    carries the lane dtype, so results from different lanes never mix.
``blas_threads`` / ``REPRO_BLAS_THREADS``
    Thread budget composed with the worker pool.  Compiled engines run their
    fused convs, and the golden simulator its aerial image, on a compute
    team of this many threads, with BLAS capped at one
    (:func:`repro.nn.backends.compute_threads`): per call in a serial
    pipeline, restored when the call returns, and for the life of each pool
    worker.  Unfused models take it as a BLAS thread cap.  Pooled pipelines
    default to 1 per worker so workers times threads never oversubscribes
    the cores; serial compiled and simulator pipelines default to the
    usable core count up to 2, and other serial pipelines leave the library
    untouched unless the knob is set.
``result_cache`` / ``REPRO_RESULT_CACHE``
    Bounded content-hash LRU in front of ``run``/``predict``
    (:mod:`repro.pipeline.cache`): exact input repeats are answered without
    touching the executor.  Default off.
``retry`` / ``REPRO_WORKER_TIMEOUT`` + ``REPRO_WORKER_RETRIES`` + ``REPRO_DEGRADE``
    Supervision policy for the pooled dispatch
    (:mod:`repro.pipeline.supervision`): per-chunk deadline, retry budget for
    failed chunks, and graceful in-process degradation (default on) when the
    pool is irrecoverable.  Worker crashes, hangs and remote exceptions are
    classified, retried bit-identically, and surfaced as counters on
    :class:`PipelineStats`; ``REPRO_FAULT_PLAN``
    (:mod:`repro.pipeline.faults`) injects deterministic chaos for testing.

Every knob composes with every other, and all combinations are bit-identical
to the serial path (pinned by ``tests/pipeline/``).  The full environment
catalogue (defaults, precedence) lives in ``docs/configuration.md``.

On top of these, ``incremental_state`` / ``predict_patched`` expose the
incremental re-simulation plan: comparing each window with the last simulated
mask finds the windows a mask edit touched and only those are re-simulated,
their ownership regions spliced into a cached full-image map
(:mod:`repro.pipeline.cache`).
"""

from .cache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    RESULT_CACHE_ENV,
    IncrementalCounters,
    IncrementalState,
    MaskResultCache,
    choose_patch_tile,
    hash_array,
    ownership_slices,
    resolve_cache_budget,
)
from .config import NUM_WORKERS_ENV, ConfigError, ExecutionConfig, ExecutionPlan
from .engine import InferencePipeline, PipelineResult, PipelineStats
from .executors import Executor, ModelExecutor, SimulatorExecutor, as_executor
from .faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    resolve_fault_plan,
)
from .parallel import WorkerPoolError, WorkerPoolExecutor
from .streaming import SEGMENT_PREFIX, SegmentRing, live_segment_names
from .supervision import (
    DEGRADE_ENV,
    WORKER_RETRIES_ENV,
    WORKER_TIMEOUT_ENV,
    ChunkFailure,
    PoolDegradedWarning,
    RetryPolicy,
    RobustnessCounters,
    SupervisedPool,
)

__all__ = [
    "ConfigError",
    "ExecutionConfig",
    "ExecutionPlan",
    "InferencePipeline",
    "PipelineResult",
    "PipelineStats",
    "DEFAULT_CACHE_BUDGET_BYTES",
    "RESULT_CACHE_ENV",
    "IncrementalCounters",
    "IncrementalState",
    "MaskResultCache",
    "choose_patch_tile",
    "hash_array",
    "ownership_slices",
    "resolve_cache_budget",
    "Executor",
    "ModelExecutor",
    "SimulatorExecutor",
    "as_executor",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "resolve_fault_plan",
    "NUM_WORKERS_ENV",
    "WorkerPoolError",
    "WorkerPoolExecutor",
    "SEGMENT_PREFIX",
    "SegmentRing",
    "live_segment_names",
    "DEGRADE_ENV",
    "WORKER_RETRIES_ENV",
    "WORKER_TIMEOUT_ENV",
    "ChunkFailure",
    "PoolDegradedWarning",
    "RetryPolicy",
    "RobustnessCounters",
    "SupervisedPool",
]
