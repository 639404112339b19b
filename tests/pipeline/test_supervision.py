"""Supervised worker pool: chaos testing, retry, respawn, degradation.

Three invariants anchor this file:

* **chaos equivalence** — under every deterministic fault mode (remote
  exception, hard ``os._exit``, SIGKILL, hang-past-deadline) the supervised
  pool heals itself and the outputs stay **bit-identical** to serial
  execution, zoo-wide, on the native, stitched/sharded and incremental
  (``predict_patched``) plans;
* **graceful degradation** — a fault plan that outlasts the retry budget
  completes the run through the in-process fallback with a
  :class:`PoolDegradedWarning` (still bit-identical), or raises a structured
  :class:`WorkerPoolError` carrying every chunk's bounds, attempt counts and
  full failure history when ``degrade=False``;
* **deterministic bookkeeping** — the ``REPRO_FAULT_PLAN`` knob resolves
  with explicit-argument > environment > default precedence (the
  ``REPRO_WORKER_*`` knobs resolve through ``ExecutionConfig.resolve()``,
  pinned in ``test_config.py``), and the robustness counters (retries, respawns, degraded runs, fault
  events) land per-run on :class:`PipelineStats` with exact values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import (
    FAULT_PLAN_ENV,
    ExecutionConfig,
    FaultPlan,
    InferencePipeline,
    InjectedFault,
    ModelExecutor,
    PoolDegradedWarning,
    RetryPolicy,
    SupervisedPool,
    WorkerPoolError,
    WorkerPoolExecutor,
    live_segment_names,
    resolve_fault_plan,
)


@pytest.fixture(scope="module")
def model(tiny_model_factory):
    return tiny_model_factory("doinn")


def _random_masks(n: int, size: int, seed: int = 17) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# RetryPolicy field validation
# --------------------------------------------------------------------- #
def test_retry_policy_field_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisedPool(0, lambda task, attempt: None)


# --------------------------------------------------------------------- #
# Knob resolution: FaultPlan syntax
# --------------------------------------------------------------------- #
def test_fault_plan_parse():
    plan = FaultPlan.parse("raise@0:1, kill@*:2x3 ; hang@4:*~2.5")
    assert len(plan.specs) == 3
    first, second, third = plan.specs
    assert (first.mode, first.call, first.chunk, first.attempts) == ("raise", 0, 1, 1)
    assert (second.mode, second.call, second.chunk, second.attempts) == ("kill", None, 2, 3)
    assert (third.mode, third.call, third.chunk, third.seconds) == ("hang", 4, None, 2.5)
    # Matching respects wildcards and the per-attempt window.
    assert plan.find(0, 1, 0) is first
    assert plan.find(0, 1, 1) is None      # raise fires on the first attempt only
    assert plan.find(9, 2, 2) is second    # x3: attempts 0..2
    assert plan.find(9, 2, 3) is None
    assert plan.events_for(9, 2, 5) == 3   # parent-side deterministic count


@pytest.mark.parametrize("text", ["boom@0:0", "raise@0", "raise@a:b", "", " , "])
def test_fault_plan_rejects_bad_syntax(text):
    with pytest.raises(ValueError):
        FaultPlan.parse(text)


def test_fault_plan_resolution(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert resolve_fault_plan() is None    # production default: no injection
    prebuilt = FaultPlan.parse("raise@0:0")
    assert resolve_fault_plan(prebuilt) is prebuilt
    assert resolve_fault_plan("exit@1:2").specs[0].mode == "exit"
    monkeypatch.setenv(FAULT_PLAN_ENV, "kill@0:0")
    assert resolve_fault_plan().specs[0].mode == "kill"
    monkeypatch.setenv(FAULT_PLAN_ENV, "")
    assert resolve_fault_plan() is None


def test_fault_plan_raise_mode_fires_injected_fault():
    plan = FaultPlan.parse("raise@0:0")
    with pytest.raises(InjectedFault):
        plan.inject(0, 0, 0)
    plan.inject(1, 0, 0)  # no spec scheduled: a no-op


# --------------------------------------------------------------------- #
# Chaos equivalence: every fault mode heals bit-identically
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["raise", "exit", "kill"])
def test_fault_heals_bit_identical(model, mode):
    """One chunk fails once (exception / hard exit / SIGKILL); the retry —
    on a respawned worker for the crash modes — reproduces the serial output
    bit for bit, because every chunk owns its ``[start, stop)`` slice."""
    masks = _random_masks(6, 32)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    with WorkerPoolExecutor(model, num_workers=2, fault_plan=f"{mode}@0:1") as executor:
        out = executor.run_batch(masks[:, None])
        np.testing.assert_array_equal(out, reference)
        counters = executor.robustness
        assert counters.chunks_retried == 1
        assert counters.fault_events == 1
        assert counters.degraded_runs == 0
        if mode == "raise":
            assert counters.workers_respawned == 0   # the worker survived
        else:
            assert counters.workers_respawned >= 1   # the worker did not
        # The healed pool keeps serving (call 1 is not in the plan).
        np.testing.assert_array_equal(executor.run_batch(masks[:, None]), reference)
        assert counters.fault_events == 1


def test_hang_is_killed_at_the_deadline_and_retried(model):
    masks = _random_masks(6, 32, seed=19)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    policy = RetryPolicy(timeout=1.0, max_retries=1)
    with WorkerPoolExecutor(
        model, num_workers=2, retry=policy, fault_plan="hang@0:0~30"
    ) as executor:
        out = executor.run_batch(masks[:, None])
        np.testing.assert_array_equal(out, reference)
        assert executor.robustness.chunks_retried == 1
        assert executor.robustness.workers_respawned == 1


def test_chaos_equivalence_whole_zoo(zoo_model, monkeypatch):
    """``REPRO_FAULT_PLAN`` chaos on every registry model: chunk 0 of every
    dispatch fails once, outputs stay bit-identical to serial — stitched +
    intra-mask sharded when the model supports it, native otherwise."""
    name, model = zoo_model
    monkeypatch.setenv(FAULT_PLAN_ENV, "raise@*:0")
    executor = ModelExecutor(model)
    if executor.supports_stitching:
        masks = _random_masks(2, 64, seed=51)
        kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
        reference = InferencePipeline(model, ExecutionConfig(**kwargs)).run(masks, stitch=True)
        with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as pooled:
            result = pooled.run(masks, stitch=True)
            assert result.stats.sharded_tiles
            np.testing.assert_array_equal(result.outputs, reference.outputs)
            assert result.stats.chunks_retried >= 1
            assert result.stats.fault_events >= 1
    else:
        masks = _random_masks(4, 32, seed=53)
        reference = InferencePipeline(model, ExecutionConfig(batch_size=2)).predict(masks)
        with InferencePipeline(model, ExecutionConfig(batch_size=2, num_workers=2)) as pooled:
            np.testing.assert_array_equal(pooled.predict(masks), reference)
            assert pooled.executor.robustness.chunks_retried >= 1


def test_chaos_predict_patched_matches_serial(model, monkeypatch):
    """Hard worker crashes under the incremental patched plan still match the
    serial prediction exactly — patched windows are just chunks with slices."""
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    serial = InferencePipeline(model, ExecutionConfig(**kwargs))
    monkeypatch.setenv(FAULT_PLAN_ENV, "exit@*:0")
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as pooled:
        state = pooled.incremental_state((64, 64))
        assert state.mode == "gp"
        mask = _random_masks(1, 64, seed=55)[0]
        # First call: full refresh — the whole GP tile stream goes through
        # the pool, and the fault plan kills a worker per dispatch.
        out = pooled.predict_patched(mask, state)
        assert np.array_equal(out, serial.predict(mask, stitch=True))
        assert pooled.executor.robustness.workers_respawned >= 1
        mask = mask.copy()
        mask[8, 8] = 1.0 - mask[8, 8]
        out = pooled.predict_patched(mask, state)
        assert np.array_equal(out, serial.predict(mask, stitch=True))
    assert live_segment_names() == ()


# --------------------------------------------------------------------- #
# Graceful degradation and structured failure
# --------------------------------------------------------------------- #
def test_exhausted_retries_degrade_with_warning(model):
    """A fault that outlasts every retry completes through the in-process
    fallback: correct (bit-identical) result, one PoolDegradedWarning."""
    masks = _random_masks(6, 32, seed=59)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    with WorkerPoolExecutor(
        model, num_workers=2, retry=RetryPolicy(max_retries=1, degrade=True),
        fault_plan="raise@0:0x9",
    ) as executor:
        with pytest.warns(PoolDegradedWarning) as record:
            out = executor.run_batch(masks[:, None])
        np.testing.assert_array_equal(out, reference)
        warning = record[0].message
        assert warning.method == "run_batch"
        assert len(warning.chunks) == 1 == len(warning.failures)
        start, stop = warning.chunks[0]
        assert 0 <= start < stop
        failure = warning.failures[0]
        assert failure.attempts == 2                      # 1 try + 1 retry
        assert [kind for kind, _ in failure.history] == ["exception", "exception"]
        counters = executor.robustness
        assert counters.degraded_runs == 1
        assert counters.chunks_retried == 1
        assert counters.fault_events == 2
        # The degraded pool is still healthy for the next (clean) call.
        np.testing.assert_array_equal(executor.run_batch(masks[:, None]), reference)
        assert counters.degraded_runs == 1


def test_exhausted_retries_raise_structured_error_when_degrade_off(model):
    masks = _random_masks(5, 32, seed=61)
    with WorkerPoolExecutor(
        model, num_workers=2, retry=RetryPolicy(max_retries=1, degrade=False),
        fault_plan="raise@0:0x9;raise@0:1x9",
    ) as executor:
        with pytest.raises(WorkerPoolError) as excinfo:
            executor.run_batch(masks[:, None])
    error = excinfo.value
    assert error.method == "run_batch"
    assert len(error.failures) == 2                       # ALL chunks reported
    bounds = sorted((f.start, f.stop) for f in error.failures)
    assert bounds == [(1, 3), (3, 5)]                     # probe leads 1 item
    for failure in error.failures:
        assert failure.attempts == 2
        assert failure.kind == "exception"
        assert len(failure.history) == 2                  # every attempt kept
    message = str(error)
    assert "2 worker chunk(s)" in message
    assert message.count("injected fault") >= 4           # all remote tracebacks


def test_irrecoverable_pool_degrades_and_rebuilds(model):
    """Killing every attempt exhausts the respawn budget: the run completes
    in-process (warned), the broken pool is torn down, and the next call
    rebuilds a fresh one that serves normally."""
    masks = _random_masks(6, 32, seed=63)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    with WorkerPoolExecutor(model, num_workers=2, fault_plan="kill@0:*x99") as executor:
        with pytest.warns(PoolDegradedWarning):
            out = executor.run_batch(masks[:, None])
        np.testing.assert_array_equal(out, reference)
        assert executor._pool is None                     # broken pool torn down
        counters = executor.robustness
        assert counters.degraded_runs == 1
        assert counters.workers_respawned >= 1
        # Call 1 is not in the plan: a fresh pool serves it cleanly.
        np.testing.assert_array_equal(executor.run_batch(masks[:, None]), reference)
        assert executor._pool is not None
        assert counters.degraded_runs == 1
    assert live_segment_names() == ()


# --------------------------------------------------------------------- #
# Per-run counters on PipelineStats
# --------------------------------------------------------------------- #
def test_pipeline_stats_report_per_run_deltas(model):
    masks = _random_masks(6, 32, seed=65)
    reference = InferencePipeline(model, ExecutionConfig(batch_size=6)).predict(masks)
    executor = WorkerPoolExecutor(model, num_workers=2, fault_plan="raise@0:0")
    with InferencePipeline(executor, ExecutionConfig(batch_size=6)) as pooled:
        first = pooled.run(masks)
        np.testing.assert_array_equal(first.outputs[:, 0], reference)
        assert first.stats.chunks_retried == 1
        assert first.stats.fault_events == 1
        assert first.stats.workers_respawned == 0
        assert first.stats.degraded_runs == 0
        # Counters are per run, not cumulative: a clean second run reads 0.
        second = pooled.run(masks)
        np.testing.assert_array_equal(second.outputs, first.outputs)
        assert second.stats.chunks_retried == 0
        assert second.stats.fault_events == 0
    # The executor keeps the cumulative ledger.
    assert executor.robustness.chunks_retried == 1


def test_serial_pipeline_stats_counters_stay_zero(model):
    stats = InferencePipeline(model, ExecutionConfig(batch_size=4)).run(_random_masks(4, 32)).stats
    assert stats.chunks_retried == 0
    assert stats.workers_respawned == 0
    assert stats.degraded_runs == 0
    assert stats.fault_events == 0
