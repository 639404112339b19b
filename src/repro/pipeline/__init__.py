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
config -> plan -> execute flow.  The per-knob keyword arguments still
accepted by :class:`InferencePipeline` are a deprecated shim.

Throughput knobs (all fields of :class:`ExecutionConfig`, honoured by every
driver that builds a pipeline — evaluation, OPC, experiment harnesses,
benchmarks):

``batch_size``
    Tiles / masks per executor invocation (executors micro-batch internally
    to stay cache-resident, so bigger batches only help).
``num_workers`` / ``REPRO_NUM_WORKERS``
    Worker processes the executor's batches are sharded across
    (:mod:`repro.pipeline.parallel`); 0/1 runs serial in-process.  The
    environment variable parallelizes a whole fleet without touching call
    sites; an explicit argument always wins.
``streaming`` / ``REPRO_STREAMING``
    Keep the worker pool's shared-memory segments alive across pipeline calls
    in a persistent, generation-tagged ring (:mod:`repro.pipeline.streaming`)
    instead of re-creating them per call.  Default on; ``streaming=False``
    (or ``REPRO_STREAMING=0``) restores the per-call transport.
``shard_tiles``
    Let the stitched large-tile plan dispatch the whole GP tile stream as one
    pooled invocation, so the tiles of a *single* large mask shard across all
    workers.  Default: on whenever the pipeline is pooled.
``compile``
    Run a model engine as a fused inference graph (:mod:`repro.nn.fusion`).
``backend`` / ``REPRO_BACKEND``
    Compute lane of the compiled fused graph (:mod:`repro.nn.backends`):
    ``float64`` (default, bit-identical to the uncompiled path), ``float32``
    (folded weights narrowed at compile time; calibrated-tolerance
    equivalence).  Only engages on compiled model engines; the cache key
    carries the lane dtype, so results from different lanes never mix.
``blas_threads`` / ``REPRO_BLAS_THREADS``
    BLAS thread cap composed with the worker pool: pooled pipelines default
    to 1 thread per worker so pool workers times BLAS threads never
    oversubscribes the cores; serial pipelines leave the library untouched
    unless the knob is set.
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
incremental re-simulation plan: per-tile content hashes find the windows a
mask edit touched and only those are re-simulated, their ownership regions
spliced into a cached full-image map (:mod:`repro.pipeline.cache`).
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
from .config import ConfigError, ExecutionConfig, ExecutionPlan
from .engine import InferencePipeline, PipelineResult, PipelineStats
from .executors import Executor, ModelExecutor, SimulatorExecutor, as_executor
from .faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    resolve_fault_plan,
)
from .parallel import (
    NUM_WORKERS_ENV,
    ParallelConfig,
    WorkerPoolError,
    WorkerPoolExecutor,
    resolve_num_workers,
)
from .streaming import (
    SEGMENT_PREFIX,
    STREAMING_ENV,
    SegmentRing,
    live_segment_names,
    resolve_streaming,
)
from .supervision import (
    DEGRADE_ENV,
    WORKER_RETRIES_ENV,
    WORKER_TIMEOUT_ENV,
    ChunkFailure,
    PoolDegradedWarning,
    RetryPolicy,
    RobustnessCounters,
    SupervisedPool,
    resolve_retry_policy,
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
    "ParallelConfig",
    "WorkerPoolError",
    "WorkerPoolExecutor",
    "resolve_num_workers",
    "SEGMENT_PREFIX",
    "STREAMING_ENV",
    "SegmentRing",
    "live_segment_names",
    "resolve_streaming",
    "DEGRADE_ENV",
    "WORKER_RETRIES_ENV",
    "WORKER_TIMEOUT_ENV",
    "ChunkFailure",
    "PoolDegradedWarning",
    "RetryPolicy",
    "RobustnessCounters",
    "SupervisedPool",
    "resolve_retry_policy",
]
