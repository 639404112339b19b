"""Supervised worker pool: liveness monitoring, retry, respawn, degradation.

`multiprocessing.Pool.map` is *blind*: a worker that segfaults, is OOM-killed
or hangs either deadlocks the parent forever or surfaces as an opaque
``multiprocessing`` internal error.  :class:`SupervisedPool` replaces it for
the chunked dispatch in :mod:`repro.pipeline.parallel` with machinery a
long-lived serving process can actually depend on:

* **per-chunk async dispatch** — every worker owns one duplex pipe and one
  explicitly assigned in-flight chunk, so a dead worker's chunk is known
  exactly (no shared task queue, no claim-attribution races);
* **liveness monitoring** — the parent blocks in
  ``multiprocessing.connection.wait`` over result pipes *and* process
  sentinels, so a hard crash wakes it immediately, and an optional per-chunk
  deadline (:attr:`RetryPolicy.timeout`) converts a hang into a kill;
* **failure classification** — ``exception`` (worker survived and returned
  the remote traceback), ``crash`` (process died: exit code / signal), or
  ``hang`` (deadline exceeded, worker killed);
* **chunk retry** — failed chunks are re-dispatched up to
  :attr:`RetryPolicy.max_retries` with bounded exponential backoff; because
  every chunk owns a half-open ``[start, stop)`` output slice, a retry is
  bit-identical by construction;
* **worker respawn** — dead workers are replaced (bounded by a per-run
  respawn budget so a poisoned input cannot fork-bomb the host); past the
  budget the pool is marked ``broken``;
* **graceful degradation** — when retries are exhausted or the pool is
  irrecoverable and :attr:`RetryPolicy.degrade` is set, the caller-supplied
  fallback recomputes the chunk in-process and the run completes with a
  :class:`PoolDegradedWarning` instead of failing the stream.

The pool is transport-agnostic: it moves opaque task tuples, and the chunk
runner / fallback own all shared-memory details.  Retry/deadline knobs come
from :class:`RetryPolicy` (``REPRO_WORKER_TIMEOUT`` / ``REPRO_WORKER_RETRIES``
/ ``REPRO_DEGRADE``, resolved by
:meth:`repro.pipeline.config.ExecutionConfig.resolve`; see
``docs/configuration.md``).
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field, replace
from multiprocessing import connection

__all__ = [
    "DEGRADE_ENV",
    "WORKER_RETRIES_ENV",
    "WORKER_TIMEOUT_ENV",
    "ChunkFailure",
    "DispatchReport",
    "PoolDegradedWarning",
    "RetryPolicy",
    "RobustnessCounters",
    "SupervisedPool",
]

WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"
WORKER_RETRIES_ENV = "REPRO_WORKER_RETRIES"
DEGRADE_ENV = "REPRO_DEGRADE"

DEFAULT_MAX_RETRIES = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs for the pooled dispatch.

    ``None`` fields defer to the environment (then to the defaults) when
    :meth:`repro.pipeline.config.ExecutionConfig.resolve` fills them — the
    same explicit-argument > env > default precedence every other pipeline
    knob uses:

    * ``timeout`` — per-chunk deadline in seconds before a worker is declared
      hung and killed.  ``None`` defers to ``REPRO_WORKER_TIMEOUT``; the
      resolved default is *no deadline* (chunk cost is workload-dependent and
      a wrong guess would kill healthy workers).  ``0`` explicitly disables
      the deadline even when the environment sets one.
    * ``max_retries`` — extra attempts per chunk after the first.  ``None``
      defers to ``REPRO_WORKER_RETRIES`` (default 2).
    * ``degrade`` — on exhausted retries / irrecoverable pool, recompute the
      affected chunks in-process and warn instead of raising.  ``None``
      defers to ``REPRO_DEGRADE`` (default on: a long-lived stream should
      survive a dying worker; deterministic *code* bugs re-raise from the
      in-process fallback anyway, undecorated).
    * ``backoff`` / ``backoff_cap`` — exponential retry delay
      ``min(backoff * 2**(attempt-1), backoff_cap)`` seconds, applied as an
      eligibility time so a healthy pool keeps working while a chunk waits.
    """

    timeout: float | None = None
    max_retries: int | None = None
    degrade: bool | None = None
    backoff: float = 0.05
    backoff_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(f"timeout must be >= 0 or None, got {self.timeout}")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0 or None, got {self.max_retries}")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff and backoff_cap must be >= 0")


@dataclass
class ChunkFailure:
    """Terminal failure record for one chunk (all attempts spent).

    ``history`` keeps every attempt's ``(kind, detail)`` — kind is
    ``exception`` / ``crash`` / ``hang``, detail the remote traceback or a
    death/deadline description — so multi-attempt diagnostics survive into
    :class:`repro.pipeline.parallel.WorkerPoolError` and
    :class:`PoolDegradedWarning`.  ``start`` / ``stop`` are the chunk's
    output-slice bounds, stamped by the dispatcher.
    """

    chunk: int
    attempts: int
    kind: str
    history: tuple[tuple[str, str], ...] = ()
    start: int = -1
    stop: int = -1

    @property
    def detail(self) -> str:
        return self.history[-1][1] if self.history else ""


@dataclass
class DispatchReport:
    """Outcome ledger of one :meth:`SupervisedPool.run`."""

    attempts: list[int] = field(default_factory=list)  # per-chunk attempt counts
    retried: int = 0        # retry attempts dispatched beyond the first try
    respawned: int = 0      # dead workers replaced during the run
    degraded: list[ChunkFailure] = field(default_factory=list)
    failed: list[ChunkFailure] = field(default_factory=list)


@dataclass
class RobustnessCounters:
    """Cumulative supervision counters on an executor; deltas land on stats."""

    chunks_retried: int = 0
    workers_respawned: int = 0
    degraded_runs: int = 0
    fault_events: int = 0

    def snapshot(self) -> "RobustnessCounters":
        return replace(self)

    def delta(self, before: "RobustnessCounters") -> "RobustnessCounters":
        return RobustnessCounters(
            chunks_retried=self.chunks_retried - before.chunks_retried,
            workers_respawned=self.workers_respawned - before.workers_respawned,
            degraded_runs=self.degraded_runs - before.degraded_runs,
            fault_events=self.fault_events - before.fault_events,
        )


class PoolDegradedWarning(RuntimeWarning):
    """A pooled dispatch completed by recomputing chunks in-process.

    The result is still bit-identical (chunk slices are partition-invariant);
    the warning records what the pool could not do itself: ``method``, the
    degraded chunks' ``(start, stop)`` bounds, and their
    :class:`ChunkFailure` records.
    """

    def __init__(self, message: str, *, method: str = "",
                 chunks: tuple = (), failures: tuple = ()):
        super().__init__(message)
        self.method = method
        self.chunks = tuple(chunks)
        self.failures = tuple(failures)


def _worker_main(conn, task_fn, initializer, initargs) -> None:
    """Worker loop: recv one task, run it, send the result; ``None`` quits.

    Runs inside a ``multiprocessing.Process`` whose ``_bootstrap`` exits via
    ``os._exit``, so inherited atexit hooks (e.g. the parent's shared-memory
    registry) never fire here.
    """
    try:
        if initializer is not None:
            initializer(*initargs)
        while True:
            item = conn.recv()
            if item is None:
                return
            task_id, attempt, task = item
            conn.send((task_id, task_fn(task, attempt)))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        # Parent went away (or is tearing us down): nothing to report to.
        return


class _Worker:
    """One supervised worker process and its in-flight assignment."""

    __slots__ = ("process", "conn", "task_id", "attempt", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task_id: int | None = None
        self.attempt = 0
        self.deadline: float | None = None


class SupervisedPool:
    """A self-healing replacement for ``multiprocessing.Pool`` chunk maps.

    ``task_fn(task, attempt)`` runs in the worker and must return ``None`` on
    success or a traceback string on failure (it must not raise — a raise
    would desynchronise the pipe protocol).  ``fallback(task)`` runs in the
    parent to recompute a chunk the pool gave up on.
    """

    def __init__(self, processes: int, task_fn, initializer=None, initargs=(),
                 context=None):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if context is None:
            import multiprocessing

            context = multiprocessing.get_context()
        self._processes = processes
        self._task_fn = task_fn
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._ctx = context
        self._workers: list[_Worker] = []
        #: Set when the respawn budget is exhausted (or spawning itself
        #: fails): the pool stops healing itself and the dispatcher is
        #: expected to tear it down and degrade or rebuild.
        self.broken = False

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._task_fn, self._initializer, self._initargs),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _discard(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.process.join(1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
        # repro: ok(EXC001, best-effort teardown of a possibly-crashed worker; join/kill on a reaped process may raise and must not mask the caller's path)
        except Exception:
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    def _prune_dead(self) -> None:
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self._discard(worker)

    def _ensure_workers(self) -> None:
        while len(self._workers) < self._processes:
            self._workers.append(self._spawn())

    def num_alive(self) -> int:
        return sum(1 for worker in self._workers if worker.process.is_alive())

    def close(self) -> None:
        """Shut the pool down; safe to call twice and at interpreter exit.

        Every step is individually guarded: during interpreter shutdown the
        worker handles may already be reaped, and a secondary error here
        would mask whatever actually went wrong.
        """
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # pipe already broken; the join/kill below still runs
        for worker in workers:
            try:
                worker.process.join(5.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(1.0)
            # repro: ok(EXC001, best-effort shutdown; a worker that died mid-close must not abort closing its siblings)
            except Exception:
                pass
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    def _death_detail(self, worker: _Worker) -> str:
        code = worker.process.exitcode
        if code is None:
            desc = "died"
        elif code < 0:
            try:
                desc = f"killed by {signal.Signals(-code).name}"
            except ValueError:
                desc = f"killed by signal {-code}"
        else:
            desc = f"exited with code {code}"
        return f"worker pid {worker.process.pid} {desc}"

    def run(self, tasks, policy: RetryPolicy, fallback=None) -> DispatchReport:
        """Dispatch ``tasks`` under ``policy``; heal, retry, degrade as needed.

        Returns a :class:`DispatchReport`; the caller decides whether
        ``report.failed`` (only populated when degradation is off or no
        fallback was given) is fatal.  Chunks listed in ``report.degraded``
        were recomputed through ``fallback`` and are already complete.
        """
        report = DispatchReport(attempts=[0] * len(tasks))
        if not tasks:
            return report
        max_attempts = 1 + policy.max_retries
        history: list[list[tuple[str, str]]] = [[] for _ in tasks]
        done = [False] * len(tasks)
        # (task_id, eligible_at) — backoff is an eligibility time, not a
        # blocking sleep, so healthy workers keep draining other chunks.
        pending: list[tuple[int, float]] = [(i, 0.0) for i in range(len(tasks))]
        respawn_budget = max(2 * self._processes, 4)
        respawns = 0

        def finish_attempt(task_id: int, kind: str, detail: str) -> None:
            history[task_id].append((kind, detail))
            attempts = report.attempts[task_id]
            if attempts < max_attempts and not self.broken:
                delay = min(policy.backoff * (2 ** max(attempts - 1, 0)),
                            policy.backoff_cap)
                pending.append((task_id, time.monotonic() + delay))
                return
            failure = ChunkFailure(chunk=task_id, attempts=attempts, kind=kind,
                                   history=tuple(history[task_id]))
            done[task_id] = True
            if policy.degrade and fallback is not None:
                fallback(tasks[task_id])
                report.degraded.append(failure)
            else:
                report.failed.append(failure)

        def replace_worker(worker: _Worker) -> None:
            nonlocal respawns
            self._discard(worker)
            if respawns >= respawn_budget:
                self.broken = True
                return
            try:
                fresh = self._spawn()
            # repro: ok(EXC001, respawn-failure classification: any spawn error degrades the pool to broken instead of crashing the supervisor loop)
            except Exception:
                self.broken = True
                return
            self._workers.append(fresh)
            respawns += 1
            report.respawned += 1

        try:
            self._prune_dead()
            self._ensure_workers()
            while not all(done):
                now = time.monotonic()
                # 1. hand eligible chunks to idle workers
                for worker in list(self._workers):
                    if worker.task_id is not None:
                        continue
                    index = next(
                        (k for k, (_, at) in enumerate(pending) if at <= now), None
                    )
                    if index is None:
                        break
                    task_id, _ = pending.pop(index)
                    attempt = report.attempts[task_id]
                    try:
                        worker.conn.send((task_id, attempt, tasks[task_id]))
                    except (BrokenPipeError, OSError):
                        # Never delivered: requeue without burning an attempt;
                        # the respawn budget bounds this loop.
                        pending.insert(0, (task_id, now))
                        replace_worker(worker)
                        continue
                    worker.task_id = task_id
                    worker.attempt = attempt
                    worker.deadline = now + policy.timeout if policy.timeout else None
                    report.attempts[task_id] += 1
                    if attempt > 0:
                        report.retried += 1
                # 2. pool burned down entirely: fail/degrade whatever is left
                if not self._workers:
                    self.broken = True
                    while pending:
                        task_id, _ = pending.pop()
                        if not done[task_id]:
                            finish_attempt(
                                task_id, "crash",
                                "worker pool irrecoverable: respawn budget exhausted",
                            )
                    continue
                if all(done):
                    break
                # 3. block until a result, a death, a deadline or a backoff expiry
                busy = [w for w in self._workers if w.task_id is not None]
                wait_objs = [w.conn for w in busy]
                wait_objs += [w.process.sentinel for w in self._workers]
                timeouts = [w.deadline - now for w in busy if w.deadline is not None]
                timeouts += [at - now for _, at in pending]
                timeout = max(0.0, min(timeouts)) if timeouts else None
                ready = connection.wait(wait_objs, timeout)
                now = time.monotonic()
                # 3a. results (a dead worker's buffered result still reads)
                for worker in busy:
                    if worker.conn not in ready:
                        continue
                    try:
                        task_id, traceback_text = worker.conn.recv()
                    except (EOFError, OSError):
                        task_id = worker.task_id
                        detail = self._death_detail(worker)
                        replace_worker(worker)
                        if task_id is not None:
                            finish_attempt(task_id, "crash", detail)
                        continue
                    worker.task_id = None
                    worker.deadline = None
                    if traceback_text is None:
                        done[task_id] = True
                    else:
                        finish_attempt(task_id, "exception", traceback_text)
                # 3b. deaths — covers idle workers and crashes without output
                for worker in list(self._workers):
                    if worker.process.sentinel in ready or not worker.process.is_alive():
                        task_id = worker.task_id
                        detail = self._death_detail(worker)
                        replace_worker(worker)
                        if task_id is not None:
                            finish_attempt(task_id, "crash", detail)
                # 3c. deadlines: kill the hung worker, classify as hang
                for worker in list(self._workers):
                    if (worker.task_id is not None and worker.deadline is not None
                            and now >= worker.deadline):
                        task_id = worker.task_id
                        detail = (
                            f"worker pid {worker.process.pid} exceeded the "
                            f"{policy.timeout:.3g}s chunk deadline; killed"
                        )
                        try:
                            worker.process.kill()
                        # repro: ok(EXC001, deadline enforcement: the worker may exit between the liveness check and the kill; either way it gets replaced)
                        except Exception:
                            pass
                        replace_worker(worker)
                        finish_attempt(task_id, "hang", detail)
        except BaseException:
            # A fallback error (or a supervision bug) leaves in-flight state
            # inconsistent; tear the pool down so the next call starts clean.
            self.close()
            self.broken = True
            raise
        return report
