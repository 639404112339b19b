"""Tests for the parallel worker-pool backend and the zero-copy conv hot path.

Two invariants anchor this file:

* sharding any executor across a :class:`WorkerPoolExecutor` is a pure
  transport change — outputs are **bit-identical** to the serial path for
  learned models and the golden simulator, on both the native and the
  stitched large-tile plans;
* the autograd ``conv2d`` (every pass on the kernel-row block kernel) is
  pinned against the seed slice-loop im2col algebra — same values, same
  autograd gradients within 1e-12 — and the window-view ``im2col`` /
  ``col2im`` of the in-test reference passes (``tests/nn/conv_reference.py``)
  bit for bit against the seed slice loops, across strides, paddings and
  kernel sizes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.litho import LithoSimulator
from repro.nn import Tensor
from repro.nn import functional as F
from repro.pipeline import (
    ExecutionConfig,
    InferencePipeline,
    ModelExecutor,
    RetryPolicy,
    SimulatorExecutor,
    WorkerPoolError,
    WorkerPoolExecutor,
)

#: Pre-supervision failure semantics: no retries, no degradation — a worker
#: failure surfaces immediately as WorkerPoolError.  The graceful-degradation
#: default is covered by tests/pipeline/test_supervision.py.
STRICT = RetryPolicy(max_retries=0, degrade=False)
from repro.pipeline.executors import Executor
from tests.nn.conv_reference import col2im, im2col


@pytest.fixture(scope="module")
def model(tiny_model_factory):
    return tiny_model_factory("doinn")


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=8, kernel_support=31)


def _random_masks(n: int, size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# Bit-identical sharding
# --------------------------------------------------------------------- #
def test_worker_pool_model_bit_identical(model):
    masks = _random_masks(6, 32)
    serial = InferencePipeline(model, ExecutionConfig(batch_size=4))
    with InferencePipeline(model, ExecutionConfig(batch_size=4, num_workers=2)) as parallel:
        assert isinstance(parallel.executor, WorkerPoolExecutor)
        assert np.array_equal(parallel.predict(masks), serial.predict(masks))


def test_worker_pool_simulator_bit_identical(simulator):
    masks = _random_masks(5, 32)
    serial = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    with InferencePipeline(simulator, ExecutionConfig(batch_size=4, num_workers=2)) as parallel:
        assert np.array_equal(parallel.predict(masks), serial.predict(masks))


def test_worker_pool_simulator_bit_identical_across_chunkings():
    """SOCS kernel chunking must not depend on the batch size a shard sees.

    12 kernels on 64x64 masks is a configuration where a batch-size-dependent
    kernel chunk would group the ``sum_k |field_k|^2`` accumulation
    differently for a whole batch of 8 than for its worker shards, flipping
    last-ULP bits (and, after resist thresholding, contour pixels)."""
    sim = LithoSimulator(pixel_size=16.0, num_kernels=12, kernel_support=35)
    masks = _random_masks(8, 64, seed=21)
    serial = InferencePipeline(sim, ExecutionConfig(batch_size=8))
    with InferencePipeline(sim, ExecutionConfig(batch_size=8, num_workers=2)) as parallel:
        assert np.array_equal(parallel.predict(masks), serial.predict(masks))


def test_worker_pool_stitched_bit_identical(model):
    masks = _random_masks(2, 64, seed=3)
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    serial = InferencePipeline(model, ExecutionConfig(**kwargs))
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as parallel:
        assert np.array_equal(
            parallel.predict(masks, stitch=True), serial.predict(masks, stitch=True)
        )


def test_worker_pool_repeated_runs_reuse_pool(model):
    masks = _random_masks(4, 32)
    serial = InferencePipeline(model, ExecutionConfig(batch_size=2))
    with InferencePipeline(model, ExecutionConfig(batch_size=2, num_workers=2)) as parallel:
        first = parallel.predict(masks)
        pool = parallel.executor._pool
        assert pool is not None
        second = parallel.predict(masks)
        assert parallel.executor._pool is pool  # no respawn per call
        assert np.array_equal(first, second)
        assert np.array_equal(first, serial.predict(masks))


# --------------------------------------------------------------------- #
# Degradation to the in-process path
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [0, 1])
def test_low_worker_counts_stay_in_process(model, workers):
    masks = _random_masks(4, 32)
    pipeline = InferencePipeline(model, ExecutionConfig(batch_size=2, num_workers=workers))
    # The pipeline does not even wrap the executor for a serial worker count.
    assert isinstance(pipeline.executor, ModelExecutor)
    assert pipeline.num_workers == workers

    executor = WorkerPoolExecutor(model, num_workers=workers)
    out = executor.run_batch(masks[:, None])
    assert executor._pool is None  # never spawned a pool
    assert np.array_equal(out, ModelExecutor(model).run_batch(masks[:, None]))


def test_single_item_batches_run_in_process(model):
    with WorkerPoolExecutor(model, num_workers=2) as executor:
        out = executor.run_batch(_random_masks(1, 32)[:, None])
        assert executor._pool is None
        assert out.shape == (1, 1, 32, 32)


def test_env_override_controls_worker_count(model, monkeypatch):
    monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
    pipeline = InferencePipeline(model)
    assert pipeline.num_workers == 3
    assert isinstance(pipeline.executor, WorkerPoolExecutor)
    assert WorkerPoolExecutor(model).num_workers == 3
    assert WorkerPoolExecutor(model, num_workers=2).num_workers == 2  # explicit wins
    monkeypatch.setenv("REPRO_NUM_WORKERS", "")
    assert ExecutionConfig().resolve().num_workers == 0  # empty = unset
    monkeypatch.setenv("REPRO_NUM_WORKERS", "not-a-number")
    with pytest.raises(ValueError):
        WorkerPoolExecutor(model)


def test_invalid_parallel_configuration(model):
    with pytest.raises(ValueError):
        WorkerPoolExecutor(model, num_workers=-1)
    with pytest.raises(TypeError):
        WorkerPoolExecutor(WorkerPoolExecutor(model, num_workers=2), num_workers=2)


# --------------------------------------------------------------------- #
# One resolution pass: the pool runs with the pipeline's resolved knobs
# --------------------------------------------------------------------- #
POOL_ENVS = (
    "REPRO_NUM_WORKERS", "REPRO_BLAS_THREADS", "REPRO_WORKER_TIMEOUT",
    "REPRO_WORKER_RETRIES", "REPRO_DEGRADE", "REPRO_FAULT_PLAN",
)
#: Provenance fields checked per case: worker count, thread budget, and
#: the deadline and retry budget of the supervision policy.
SOURCE_FIELDS = ("num_workers", "blas_threads", "retry.timeout", "retry.max_retries")


@pytest.mark.parametrize(
    ("env", "config", "sources"),
    [
        (
            {},
            ExecutionConfig(num_workers=2),
            ("explicit", "default", "default", "default"),
        ),
        (
            {},
            ExecutionConfig(
                num_workers=3, blas_threads=2,
                retry=RetryPolicy(timeout=5.0, max_retries=1, degrade=False),
            ),
            ("explicit",) * 4,
        ),
        (
            {
                "REPRO_NUM_WORKERS": "2", "REPRO_BLAS_THREADS": "2",
                "REPRO_WORKER_TIMEOUT": "7.5", "REPRO_WORKER_RETRIES": "4",
                "REPRO_DEGRADE": "0",
            },
            ExecutionConfig(),
            (
                "REPRO_NUM_WORKERS", "REPRO_BLAS_THREADS",
                "REPRO_WORKER_TIMEOUT", "REPRO_WORKER_RETRIES",
            ),
        ),
    ],
    ids=["default", "explicit", "env"],
)
def test_pool_runs_with_the_pipelines_resolved_knobs(model, monkeypatch, env, config, sources):
    for name in POOL_ENVS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with InferencePipeline(model, config) as pipeline:
        pool = pipeline.executor
        resolved = pipeline.config
        assert isinstance(pool, WorkerPoolExecutor)
        assert (pool.num_workers, pool.retry, pool.blas_threads) == (
            resolved.num_workers, resolved.retry, resolved.blas_threads,
        )
        assert tuple(resolved.source_of(name) for name in SOURCE_FIELDS) == sources


def test_explicit_zero_timeout_arms_no_deadline_under_env(model, monkeypatch):
    """``RetryPolicy(timeout=0)`` beats ``REPRO_WORKER_TIMEOUT`` all the way
    into the pool: a chunk that outlives the env deadline is waited for, not
    killed.  The control run without the explicit 0 shows the env deadline
    would have killed and retried it."""
    for name in POOL_ENVS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0.2")
    monkeypatch.setenv("REPRO_FAULT_PLAN", "hang@0:0~1")
    masks = _random_masks(4, 32)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    for retry, retried in ((RetryPolicy(timeout=0), 0), (None, 1)):
        config = ExecutionConfig(batch_size=4, num_workers=2, retry=retry)
        with InferencePipeline(model, config) as pipeline:
            assert pipeline.executor.retry == pipeline.config.retry
            assert pipeline.executor.retry.timeout == (0 if retry else 0.2)
            result = pipeline.run(masks)
        np.testing.assert_array_equal(result.outputs, reference)
        assert result.stats.fault_events == 1
        assert (result.stats.chunks_retried, result.stats.workers_respawned) == (
            retried, retried,
        )


def test_worker_pool_proxies_capabilities(model, simulator):
    wrapped = WorkerPoolExecutor(model, num_workers=2)
    assert wrapped.supports_stitching
    assert wrapped.pool_factor == model.config.pool_factor
    assert not wrapped.arbitrary_size
    assert "workers=2" in wrapped.name
    sim_wrapped = WorkerPoolExecutor(simulator, num_workers=2)
    assert sim_wrapped.arbitrary_size
    assert not sim_wrapped.supports_stitching


# --------------------------------------------------------------------- #
# Lifecycle: close() idempotency, context-manager re-entry (PR 2 edges)
# --------------------------------------------------------------------- #
def test_worker_pool_close_is_idempotent(model):
    masks = _random_masks(4, 32)
    executor = WorkerPoolExecutor(model, num_workers=2)
    reference = executor.run_batch(masks[:, None])
    assert executor._pool is not None
    executor.close()
    assert executor._pool is None
    executor.close()  # second close is a no-op, not an error
    assert executor._pool is None
    # The pool respawns transparently on the next run, with the same results.
    np.testing.assert_array_equal(executor.run_batch(masks[:, None]), reference)
    executor.close()
    executor.close()


def test_pipeline_context_manager_reentry(model):
    masks = _random_masks(4, 32)
    pipeline = InferencePipeline(model, ExecutionConfig(batch_size=2, num_workers=2))
    with pipeline as entered:
        assert entered is pipeline
        first = pipeline.predict(masks)
        assert pipeline.executor._pool is not None
    assert pipeline.executor._pool is None  # exit closed the pool
    with pipeline:  # re-entry after close respawns it
        second = pipeline.predict(masks)
        assert pipeline.executor._pool is not None
    assert pipeline.executor._pool is None
    np.testing.assert_array_equal(first, second)


def test_serial_pipeline_close_and_reentry_are_noops(model):
    masks = _random_masks(2, 32)
    pipeline = InferencePipeline(model, ExecutionConfig(batch_size=2))
    with pipeline:
        first = pipeline.predict(masks)
    pipeline.close()
    pipeline.close()
    with pipeline:
        second = pipeline.predict(masks)
    np.testing.assert_array_equal(first, second)


# --------------------------------------------------------------------- #
# Error propagation
# --------------------------------------------------------------------- #
class _FailsInWorkers(Executor):
    """Succeeds in the creating process (the in-process probe), fails in
    worker processes — so the failure surfaces on the pool side."""

    name = "fails-in-workers"

    def __init__(self) -> None:
        self._parent_pid = os.getpid()

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        if os.getpid() != self._parent_pid:
            raise ValueError("deliberate worker failure (marker-1234)")
        return batch.copy()


class _AlwaysFails(Executor):
    name = "always-fails"

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        raise ValueError("deliberate failure (marker-5678)")


def test_worker_exception_propagates_with_remote_traceback():
    with WorkerPoolExecutor(_FailsInWorkers(), num_workers=2, retry=STRICT) as executor:
        with pytest.raises(WorkerPoolError) as excinfo:
            executor.run_batch(np.zeros((5, 1, 8, 8)))
    message = str(excinfo.value)
    assert "marker-1234" in message          # the original error
    assert "Traceback" in message            # ... with the remote traceback
    assert "run_batch" in message            # ... pointing into the executor
    # The error is structured: method, chunk bounds, attempt counts.
    assert excinfo.value.method == "run_batch"
    assert excinfo.value.failures
    for failure in excinfo.value.failures:
        assert 0 <= failure.start < failure.stop
        assert failure.attempts == 1
        assert failure.kind == "exception"


def test_probe_failure_raises_in_parent():
    # The output-spec probe runs in-process; its failure is the original
    # exception, not a wrapped worker error.
    with WorkerPoolExecutor(_AlwaysFails(), num_workers=2) as executor:
        with pytest.raises(ValueError, match="marker-5678"):
            executor.run_batch(np.zeros((4, 1, 8, 8)))


def test_pool_recovers_after_worker_failure(model):
    masks = _random_masks(4, 32)
    with WorkerPoolExecutor(model, num_workers=2) as executor:
        reference = ModelExecutor(model).run_batch(masks[:, None])
        assert np.array_equal(executor.run_batch(masks[:, None]), reference)
    with WorkerPoolExecutor(_FailsInWorkers(), num_workers=2, retry=STRICT) as failing:
        with pytest.raises(WorkerPoolError):
            failing.run_batch(np.zeros((5, 1, 8, 8)))
        # The pool survives a failed chunk and keeps serving.
        with pytest.raises(WorkerPoolError):
            failing.run_batch(np.zeros((5, 1, 8, 8)))


# --------------------------------------------------------------------- #
# Seed pins for the reference im2col / col2im and the autograd conv
# --------------------------------------------------------------------- #
def _seed_im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The pre-rewrite slice-loop im2col, verbatim."""
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, h_out, w_out), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * h_out
        for j in range(kw):
            j_end = j + stride * w_out
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, h_out * w_out)


def _seed_col2im(cols, image_shape, kh, kw, stride, padding):
    """The pre-rewrite scatter-add col2im, verbatim."""
    n, c, h, w = image_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    image = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * h_out
        for j in range(kw):
            j_end = j + stride * w_out
            image[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return image[:, :, padding:-padding, padding:-padding]
    return image


# (kh, kw, stride, padding): stride-1 zero-copy view, strided slicing, the
# non-overlapping col2im fast path (stride >= kernel) and 1x1 kernels.
_CONV_CONFIGS = [
    (3, 3, 1, 1),
    (3, 3, 1, 0),
    (4, 4, 2, 1),
    (3, 3, 3, 0),   # non-overlapping scatter fast path
    (2, 2, 2, 1),   # non-overlapping, padded
    (1, 1, 1, 0),
    (3, 2, 1, 1),   # rectangular kernel
]


@pytest.mark.parametrize("kh,kw,stride,padding", _CONV_CONFIGS)
def test_im2col_matches_seed_bit_for_bit(kh, kw, stride, padding):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 12, 12))
    assert np.array_equal(
        im2col(x, kh, kw, stride, padding), _seed_im2col(x, kh, kw, stride, padding)
    )


@pytest.mark.parametrize("kh,kw,stride,padding", _CONV_CONFIGS)
def test_col2im_matches_seed_bit_for_bit(kh, kw, stride, padding):
    rng = np.random.default_rng(6)
    shape = (2, 3, 12, 12)
    cols = rng.standard_normal(_seed_im2col(np.zeros(shape), kh, kw, stride, padding).shape)
    assert np.array_equal(
        col2im(cols, shape, kh, kw, stride, padding),
        _seed_col2im(cols, shape, kh, kw, stride, padding),
    )


@pytest.mark.parametrize("kh,kw,stride,padding", _CONV_CONFIGS)
def test_col2im_is_adjoint_of_im2col(kh, kw, stride, padding):
    """<im2col(x), c> == <x, col2im(c)> — the reference passes' autograd contract."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 10, 10))
    cols = rng.standard_normal(im2col(x, kh, kw, stride, padding).shape)
    lhs = float((im2col(x, kh, kw, stride, padding) * cols).sum())
    rhs = float((x * col2im(cols, x.shape, kh, kw, stride, padding)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("stride,padding,k", [(1, 1, 3), (2, 1, 4)])
def test_conv2d_gradients_match_seed_implementation(stride, padding, k):
    """Autograd through the rewritten conv matches the seed im2col algebra."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4)

    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True)
    out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
    out.backward(np.ones(out.shape))

    # Seed forward/backward: im2col + einsum + col2im, verbatim.
    cols = _seed_im2col(x, k, k, stride, padding)
    w_mat = w.reshape(4, -1)
    seed_out = np.einsum("ok,nkl->nol", w_mat, cols) + b.reshape(1, 4, 1)
    seed_out = seed_out.reshape(out.shape)
    grad = np.ones(out.shape)
    grad_mat = grad.reshape(2, 4, -1)
    seed_grad_w = np.einsum("nol,nkl->ok", grad_mat, cols).reshape(w.shape)
    seed_grad_b = grad_mat.sum(axis=(0, 2))
    seed_grad_x = _seed_col2im(
        np.einsum("ok,nol->nkl", w_mat, grad_mat), x.shape, k, k, stride, padding
    )

    np.testing.assert_allclose(out.numpy(), seed_out, atol=1e-12)
    np.testing.assert_allclose(wt.grad, seed_grad_w, atol=1e-12)
    np.testing.assert_allclose(bt.grad, seed_grad_b, atol=1e-12)
    np.testing.assert_allclose(xt.grad, seed_grad_x, atol=1e-12)


def test_conv2d_is_partition_invariant(model):
    """Forwards are bit-identical however the batch is split — the property
    that makes worker-pool sharding exact for learned models."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3, 16, 16))
    w = rng.standard_normal((8, 3, 3, 3))
    whole = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).numpy()
    parts = np.concatenate(
        [F.conv2d(Tensor(x[i : i + 1]), Tensor(w), stride=1, padding=1).numpy() for i in range(4)]
    )
    assert np.array_equal(whole, parts)
