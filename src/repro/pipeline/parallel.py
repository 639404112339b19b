"""Parallel worker-pool execution backend for the inference pipeline.

:class:`WorkerPoolExecutor` wraps any :class:`~repro.pipeline.executors.Executor`
and shards its batches across a multiprocessing pool so full-chip streams
scale past one core:

* **Shared-memory transport** — inputs are copied once into POSIX shared
  memory (:mod:`multiprocessing.shared_memory`); workers map them zero-copy,
  compute their chunk, and write the result directly into a shared output
  buffer.  No mask or prediction array is ever pickled through a pipe.
* **Persistent streaming ring** — the input/output segments live in a
  :class:`~repro.pipeline.streaming.SegmentRing` that persists across
  executor invocations, so consecutive pipeline calls (OPC iteration loops,
  full-chip tile streams) reuse the mapped segments instead of paying a fresh
  ``shm_open`` + ``mmap`` per call.  Slots are generation-tagged: workers
  cache their mapping per slot and remap only when the parent regrew a slot
  for a larger geometry.  The ring is the only transport.
* **Guaranteed segment teardown** — every ring segment is tracked by the
  :mod:`~repro.pipeline.streaming` registry: it is released by
  :meth:`WorkerPoolExecutor.close` (also on error: a failed call leaves its
  slots owned by the ring, never stale), and whatever is still live at
  interpreter exit is unlinked by the registry's ``atexit`` hook —
  ``/dev/shm`` never accumulates stale ``repro`` segments.
* **Even split** — each executor invocation is split into chunks of
  ``ceil(batch / num_workers)`` items, at most one per worker; the chunk is
  the unit of dispatch, retry and degradation.
* **Ordered reassembly** — every chunk writes its half-open ``[start, stop)``
  slice of the shared output, so results come back in input order by
  construction, bit-identical to the serial path.
* **Supervised dispatch** — chunks are fanned out through a
  :class:`~repro.pipeline.supervision.SupervisedPool` that monitors worker
  liveness (pipe + process sentinel, optional per-chunk deadline from
  :class:`~repro.pipeline.supervision.RetryPolicy`), classifies failures
  (remote exception / hard crash / hang), retries failed chunks with bounded
  backoff, respawns dead workers, and — when the pool is irrecoverable or
  retries are exhausted — recomputes the remaining chunks in-process through
  the wrapped executor, emitting a
  :class:`~repro.pipeline.supervision.PoolDegradedWarning` instead of failing
  the stream.  Because every chunk owns its output slice, a retried or
  degraded chunk is bit-identical by construction.  Cumulative counters live
  on :attr:`WorkerPoolExecutor.robustness` and surface per-run on
  ``PipelineStats``.
* **Error propagation** — when degradation is off, exhausted chunks raise a
  structured :class:`WorkerPoolError` carrying the method, every failed
  chunk's bounds and attempt counts, and *all* remote tracebacks.
* **Deterministic chaos testing** — a
  :class:`~repro.pipeline.faults.FaultPlan` (``fault_plan=`` /
  ``REPRO_FAULT_PLAN``) injects raise / ``os._exit`` / SIGKILL / hang faults
  at exact (call, chunk, attempt) coordinates inside :func:`_run_chunk`.
* **Clean shutdown** — the pool is created lazily on first parallel run and
  torn down by :meth:`WorkerPoolExecutor.close` (also a context manager, also
  best-effort on garbage collection), which releases the streaming ring too.
  Teardown is guarded step by step so interpreter-shutdown races (worker
  handles already reaped) never mask the original error.

``num_workers <= 1`` (and single-item batches) degrade to the wrapped
executor's in-process path, so a pipeline with the knob left at zero behaves
exactly as before.  The executor takes its knobs (``num_workers``,
``retry``, ``blas_threads``) one keyword each and resolves
them in one :meth:`~repro.pipeline.config.ExecutionConfig.resolve` pass:
explicit argument > ``REPRO_*`` environment variable > default (see
``docs/configuration.md`` for the full catalogue).  An
:class:`~repro.pipeline.InferencePipeline` hands it the values it resolved
itself, so a pooled pipeline and its pool agree field for field.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import sys
import traceback
import warnings
from multiprocessing import shared_memory

import numpy as np

from ..nn.backends import set_blas_threads, set_compute_threads
from .config import ExecutionConfig
from .executors import Executor, as_executor
from .faults import FaultPlan, resolve_fault_plan
from .streaming import SegmentRing
from .supervision import (
    PoolDegradedWarning,
    RetryPolicy,
    RobustnessCounters,
    SupervisedPool,
)

__all__ = [
    "PoolDegradedWarning",
    "RetryPolicy",
    "RobustnessCounters",
    "WorkerPoolError",
    "WorkerPoolExecutor",
]

class WorkerPoolError(RuntimeError):
    """Worker chunks failed terminally and degradation was off (or impossible).

    Structured: ``method`` names the executor method, ``failures`` holds one
    :class:`~repro.pipeline.supervision.ChunkFailure` per exhausted chunk —
    output-slice bounds, attempt count, failure kind, and the full history of
    every attempt's remote traceback / death detail.  The message renders all
    of it, so multi-chunk failures no longer drop diagnostics.
    """

    def __init__(self, message: str, *, executor: str = "", method: str = "",
                 failures: tuple = ()):
        super().__init__(message)
        self.executor = executor
        self.method = method
        self.failures = tuple(failures)

    @classmethod
    def from_failures(cls, executor: str, method: str, failures) -> "WorkerPoolError":
        failures = tuple(failures)
        lines = [f"{len(failures)} worker chunk(s) of {executor}.{method} failed"]
        for failure in failures:
            lines.append(
                f"chunk {failure.chunk} [{failure.start}:{failure.stop}) "
                f"{failure.kind} after {failure.attempts} attempt(s):"
            )
            for attempt, (kind, detail) in enumerate(failure.history):
                lines.append(f"  attempt {attempt} ({kind}):")
                lines.extend("    " + line for line in detail.rstrip().splitlines())
        return cls("\n".join(lines), executor=executor, method=method, failures=failures)


# ---------------------------------------------------------------------- #
# Worker-process side
# ---------------------------------------------------------------------- #
_WORKER_EXECUTOR: Executor | None = None

#: Worker-side half of the streaming ring: ``role -> (segment name,
#: generation, mapped SharedMemory)``.  A mapping is reused as long as the
#: parent's slot keeps its (name, generation) tag and remapped when the slot
#: was regrown, so steady-state streaming tasks touch no ``shm_open`` at all.
_WORKER_SEGMENTS: dict[str, tuple[str, int, shared_memory.SharedMemory]] = {}

#: Worker-side fault plan (chaos testing only; ``None`` in production).
_WORKER_FAULTS: FaultPlan | None = None


def _init_worker(
    executor: Executor, fault_plan: FaultPlan | None = None, blas_threads: int = 0
) -> None:
    global _WORKER_EXECUTOR, _WORKER_FAULTS
    _WORKER_EXECUTOR = executor
    _WORKER_FAULTS = fault_plan
    _WORKER_SEGMENTS.clear()
    # Runtime ctypes calls, not an env var: under the fork start method the
    # BLAS library is already initialized when the worker starts, so
    # OPENBLAS_NUM_THREADS would be read too late to retune it.  A compiled
    # executor's fused kernels and a simulator's aerial image run on this
    # worker's own compute team (a forked child never reuses its parent's,
    # see compute_team).
    if getattr(executor, "on_team", False):
        set_compute_threads(blas_threads)
    elif blas_threads:
        set_blas_threads(blas_threads)


def _map_segment(spec) -> shared_memory.SharedMemory:
    """Map one ring slot, reusing this worker's mapping while it is current."""
    role, name, generation, _shape, _dtype = spec
    cached = _WORKER_SEGMENTS.get(role)
    if cached is not None:
        if cached[0] == name and cached[1] == generation:
            return cached[2]
        try:  # the parent regrew this slot: drop the stale mapping
            cached[2].close()
        except BufferError:  # pragma: no cover - views from an aborted task
            pass
    shm = shared_memory.SharedMemory(name=name)
    _WORKER_SEGMENTS[role] = (name, generation, shm)
    return shm


def _execute_chunk(task) -> None:
    method, inputs, output, start, stop = task[:5]
    views = []
    for spec in inputs:
        shm = _map_segment(spec)
        views.append(np.ndarray(spec[3], dtype=spec[4], buffer=shm.buf)[start:stop])
    out_shm = _map_segment(output)
    out = np.ndarray(output[3], dtype=output[4], buffer=out_shm.buf)
    out[start:stop] = getattr(_WORKER_EXECUTOR, method)(*views)


def _run_chunk(task, attempt: int = 0) -> str | None:
    """Pool entry point: returns ``None`` on success, a traceback on failure.

    Tasks carry ``(call, chunk)`` coordinates as their sixth element; a
    configured fault plan fires here, before the chunk executes, so injected
    chaos is deterministic per (call, chunk, attempt).
    """
    try:
        if _WORKER_FAULTS is not None:
            call, chunk = task[5]
            _WORKER_FAULTS.inject(call, chunk, attempt)
        _execute_chunk(task)
        return None
    # repro: ok(EXC001, worker-side failure classification: every failure is serialized as a traceback string so the supervisor can retry or degrade)
    except BaseException:
        return traceback.format_exc()


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class WorkerPoolExecutor(Executor):
    """Shard any executor's batches across a multiprocessing pool.

    The wrapped executor is shipped to each worker once (pool initializer);
    per-call traffic is pure shared memory, and the shared segments
    themselves persist across calls in the ring.  The
    first call for each ``(method, item shape)`` runs one item in-process to
    learn the output spec (and warm the parent's caches); afterwards every
    batch is fully sharded.  All capability flags and the stitching hooks of
    the wrapped executor are proxied, so the pipeline's planner sees no
    difference between a serial and a pooled engine.
    """

    def __init__(
        self,
        engine,
        num_workers: int | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: "FaultPlan | str | None" = None,
        blas_threads: int | None = None,
    ) -> None:
        config = ExecutionConfig(
            num_workers=num_workers, retry=retry, blas_threads=blas_threads,
        ).resolve()
        inner = as_executor(engine)
        if isinstance(inner, WorkerPoolExecutor):
            raise TypeError("cannot nest WorkerPoolExecutor inside WorkerPoolExecutor")
        self.inner = inner
        self.num_workers = config.num_workers
        self.retry = config.retry
        self.blas_threads = config.blas_threads
        self.fault_plan = resolve_fault_plan(fault_plan)
        self.robustness = RobustnessCounters()
        self.name = (
            f"{inner.name}[workers={self.num_workers}]" if self.num_workers > 1 else inner.name
        )
        self._pool = None
        self._ring: SegmentRing | None = None
        self._output_specs: dict = {}
        self._call_index = 0

    # -- capability proxies -------------------------------------------- #
    @property
    def arbitrary_size(self) -> bool:
        return self.inner.arbitrary_size

    @property
    def supports_stitching(self) -> bool:
        return self.inner.supports_stitching

    @property
    def pool_factor(self) -> int:
        return self.inner.pool_factor

    @property
    def compiled(self) -> bool:
        """Whether the wrapped executor runs a compiled fused graph."""
        return getattr(self.inner, "compiled", False)

    @property
    def on_team(self) -> bool:
        """Whether the wrapped executor's kernels run on the compute team."""
        return getattr(self.inner, "on_team", False)

    @property
    def dtype(self):
        """Compute lane dtype of the wrapped executor (None for simulators)."""
        return getattr(self.inner, "dtype", None)

    # -- executor interface -------------------------------------------- #
    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        return self._run("run_batch", (batch,))

    def run_gp(self, tiles: np.ndarray) -> np.ndarray:
        return self._run("run_gp", (tiles,))

    def run_reconstruction(self, gp: np.ndarray, masks: np.ndarray) -> np.ndarray:
        return self._run("run_reconstruction", (gp, masks))

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        """Shut the pool down and release the streaming ring (idempotent).

        Both respawn transparently on the next parallel run, so ``close`` can
        be called between streams to return the shared memory to the OS.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()  # guarded step by step inside
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def __enter__(self) -> "WorkerPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        # repro: ok(EXC001, __del__ runs during interpreter shutdown where half the module graph may be gone; nothing can be reported)
        except Exception:
            pass

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_pool"] = None  # pools are per-process
        state["_ring"] = None  # ring segments are owned by the creating process
        return state

    # -- sharded execution ---------------------------------------------- #
    def _run(self, method: str, arrays: tuple) -> np.ndarray:
        fn = getattr(self.inner, method)
        batch = arrays[0].shape[0]
        if self.num_workers <= 1 or batch < 2:
            return fn(*arrays)

        arrays = tuple(np.ascontiguousarray(a) for a in arrays)
        spec_key = (
            method,
            tuple(a.shape[1:] for a in arrays),
            tuple(a.dtype.str for a in arrays),
        )
        spec = self._output_specs.get(spec_key)
        first = None
        lead = 0
        if spec is None:
            # Probe one item in-process to learn the output spec; cached, so
            # every later batch of this shape is sharded end to end.
            first = fn(*(a[:1] for a in arrays))
            spec = (tuple(first.shape[1:]), first.dtype)
            self._output_specs[spec_key] = spec
            lead = 1
        item_shape, out_dtype = spec
        out_shape = (batch, *item_shape)
        out_nbytes = int(np.prod(out_shape, dtype=np.int64)) * out_dtype.itemsize

        chunk = math.ceil((batch - lead) / self.num_workers)
        bounds = [(s, min(s + chunk, batch)) for s in range(lead, batch, chunk)]
        return self._run_ring(method, arrays, out_shape, out_dtype, out_nbytes, first, bounds)

    def _dispatch(
        self, method: str, inputs: list, output: tuple, bounds: list, fallback,
    ) -> None:
        """Fan the chunk tasks out under supervision; heal or raise structured.

        ``fallback(start, stop)`` recomputes one chunk in-process through the
        wrapped executor (built over the ring's live output view), which is what graceful degradation runs when the pool gives a
        chunk up.
        """
        call = self._call_index
        self._call_index += 1
        tasks = [
            (method, inputs, output, start, stop, (call, index))
            for index, (start, stop) in enumerate(bounds)
        ]
        report = self._ensure_pool().run(
            tasks, self.retry, fallback=lambda task: fallback(task[3], task[4])
        )
        pool = self._pool
        if pool is not None and pool.broken:
            # Irrecoverable: tear it down now so the next call rebuilds a
            # fresh pool instead of re-degrading forever.
            pool.close()
            self._pool = None
        counters = self.robustness
        counters.chunks_retried += report.retried
        counters.workers_respawned += report.respawned
        if self.fault_plan is not None:
            counters.fault_events += sum(
                self.fault_plan.events_for(call, index, attempts)
                for index, attempts in enumerate(report.attempts)
            )
        for failure in report.degraded + report.failed:
            failure.start, failure.stop = bounds[failure.chunk]
        if report.degraded:
            counters.degraded_runs += 1
            chunks = tuple(bounds[failure.chunk] for failure in report.degraded)
            warnings.warn(
                PoolDegradedWarning(
                    f"{len(report.degraded)} worker chunk(s) of "
                    f"{self.name}.{method} exhausted the pool (retries/respawns "
                    "spent); recomputed in-process through the wrapped executor",
                    method=method,
                    chunks=chunks,
                    failures=report.degraded,
                ),
                stacklevel=4,
            )
        if report.failed:
            raise WorkerPoolError.from_failures(self.name, method, report.failed)

    def _run_ring(
        self, method: str, arrays: tuple, out_shape: tuple, out_dtype, out_nbytes: int,
        first: np.ndarray | None, bounds: list,
    ) -> np.ndarray:
        """Copy into the persistent ring, dispatch, copy out.

        Slots survive this call — an error leaves them owned by the ring (torn
        down by ``close()`` or the registry's atexit hook), never stale in
        ``/dev/shm``.
        """
        ring = self._ensure_ring()
        inputs = []
        for index, a in enumerate(arrays):
            slot = ring.acquire(f"in{index}", a.nbytes)
            np.ndarray(a.shape, dtype=a.dtype, buffer=slot.shm.buf)[:] = a
            inputs.append((slot.role, slot.shm.name, slot.generation, a.shape, a.dtype.str))
        out_slot = ring.acquire("out", out_nbytes)
        out_view = np.ndarray(out_shape, dtype=out_dtype, buffer=out_slot.shm.buf)
        if first is not None:
            out_view[:1] = first
        output = (out_slot.role, out_slot.shm.name, out_slot.generation, out_shape, out_dtype.str)
        inner_fn = getattr(self.inner, method)

        def fallback(start: int, stop: int) -> None:
            out_view[start:stop] = inner_fn(*(a[start:stop] for a in arrays))

        try:
            self._dispatch(method, inputs, output, bounds, fallback)
            return out_view.copy()
        finally:
            # Release the parent's array view so a later regrow/close can
            # unmap the slot (a mapping cannot close under a live ndarray).
            del out_view

    def _ensure_ring(self) -> SegmentRing:
        if self._ring is None:
            self._ring = SegmentRing()
        return self._ring

    def _ensure_pool(self):
        if self._pool is None:
            # fork is the cheap path (no re-import, no executor pickling) but
            # is only safe on Linux: macOS system frameworks and a forked
            # BLAS/pthread state can crash or deadlock children, which is why
            # CPython's default start method is spawn there.
            methods = mp.get_all_start_methods()
            use_fork = sys.platform.startswith("linux") and "fork" in methods
            ctx = mp.get_context("fork" if use_fork else "spawn")
            self._pool = SupervisedPool(
                self.num_workers,
                _run_chunk,
                initializer=_init_worker,
                initargs=(self.inner, self.fault_plan, self.blas_threads),
                context=ctx,
            )
        return self._pool
