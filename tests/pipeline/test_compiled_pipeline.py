"""Compiled-executor coverage: ``ModelExecutor(compile=True)`` end to end.

Pins the pipeline-level contracts of the fusion compiler: a compiled engine
is numerically equivalent to the unfused executor (<= 1e-12) on the native
and stitched plans, is *bit*-identical across micro-batch splits and worker
shardings (the partition-invariance that makes pooled execution exact), and
composes with every pipeline knob.  Also holds the micro-batch >= 1
regression guard for very large tile geometries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.litho import LithoSimulator
from repro.nn import FusedInferenceGraph, compile_model
from repro.nn.backends import resolve_backend
from repro.pipeline import (
    ExecutionConfig,
    InferencePipeline,
    ModelExecutor,
    WorkerPoolExecutor,
    as_executor,
)

# Under the CI backend matrix (REPRO_BACKEND=float32) the compiled executors
# in this suite run the float32 lane while the unfused references stay
# float64, so fused-vs-unfused comparisons hold at the calibrated lane
# tolerance instead of 1e-12.  Within-lane bit-identity pins (partition
# invariance, pooled-vs-serial) are unaffected — every lane keeps those.
_LANE = resolve_backend()
if _LANE.itemsize == 8:
    TOL = dict(rtol=1e-12, atol=1e-12)
else:
    TOL = dict(rtol=1e-5, atol=1e-5)


@pytest.fixture(scope="module")
def model(tiny_model_factory):
    return tiny_model_factory("doinn")


def _random_masks(n: int, size: int, seed: int = 17) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# Executor-level compile flag
# --------------------------------------------------------------------- #
def test_model_executor_compile_equivalence(zoo_model):
    name, model = zoo_model
    batch = _random_masks(3, 32)[:, None]
    plain = ModelExecutor(model)
    fused = ModelExecutor(model, compile=True)
    assert not plain.compiled
    assert fused.compiled
    assert fused.name == f"{type(model).__name__}[compiled]"
    assert isinstance(fused.model, FusedInferenceGraph)
    np.testing.assert_allclose(fused.run_batch(batch), plain.run_batch(batch), **TOL)


def test_model_executor_accepts_precompiled_graph(model):
    graph = compile_model(model)
    executor = ModelExecutor(graph)
    assert executor.compiled
    assert executor.name == "DOINN[compiled]"
    assert executor.model is graph


def test_compiled_executor_is_partition_invariant(model):
    """Micro-batch splits and shard boundaries cannot change a single bit."""
    masks = _random_masks(5, 32)[:, None]
    executor = ModelExecutor(model, compile=True)
    whole = executor.run_batch(masks)
    singles = np.concatenate([executor.run_batch(masks[i : i + 1]) for i in range(5)])
    np.testing.assert_array_equal(whole, singles)


def test_compiled_executor_keeps_stitching_hooks(model):
    plain = ModelExecutor(model)
    fused = ModelExecutor(model, compile=True)
    assert fused.supports_stitching
    assert fused.pool_factor == plain.pool_factor == 8
    tiles = _random_masks(4, 32)
    np.testing.assert_allclose(fused.run_gp(tiles[:, None]), plain.run_gp(tiles[:, None]), **TOL)


def test_as_executor_compile_validation(model):
    simulator = LithoSimulator(pixel_size=16.0, num_kernels=6, kernel_support=31)
    assert as_executor(model, compile=True).compiled
    with pytest.raises(ValueError, match="golden simulator"):
        as_executor(simulator, compile=True)
    with pytest.raises(ValueError, match="raw model engine"):
        as_executor(ModelExecutor(model), compile=True)


# --------------------------------------------------------------------- #
# Pipeline-level compile knob
# --------------------------------------------------------------------- #
def test_pipeline_compile_knob_equivalence(zoo_model):
    name, model = zoo_model
    masks = _random_masks(4, 32)
    plain = InferencePipeline(model, ExecutionConfig(batch_size=2))
    fused = InferencePipeline(model, ExecutionConfig(batch_size=2, compile=True))
    assert fused.compiled and not plain.compiled
    np.testing.assert_allclose(fused.predict(masks), plain.predict(masks), **TOL)


def test_compiled_stitched_plan_matches_unfused(model):
    masks = _random_masks(2, 64, seed=5)
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    plain = InferencePipeline(model, ExecutionConfig(**kwargs))
    fused = InferencePipeline(model, ExecutionConfig(compile=True, **kwargs))
    assert fused.run(masks).stats.mode == "stitched"
    np.testing.assert_allclose(
        fused.predict(masks, stitch=True), plain.predict(masks, stitch=True), **TOL
    )


def test_compiled_pipeline_reports_compiled_engine_in_stats(model):
    pipeline = InferencePipeline(model, ExecutionConfig(compile=True))
    result = pipeline.run(_random_masks(2, 32))
    assert result.stats.engine == "DOINN[compiled]"


def test_pipeline_compile_rejects_simulator_engines():
    simulator = LithoSimulator(pixel_size=16.0, num_kernels=6, kernel_support=31)
    with pytest.raises(ValueError, match="golden simulator"):
        InferencePipeline(simulator, ExecutionConfig(compile=True))


# --------------------------------------------------------------------- #
# Interleaved batch sizes through one compiled engine (satellite regression)
# --------------------------------------------------------------------- #
def test_compiled_executor_alternating_batch_sizes(zoo_model):
    """One compiled engine serving interleaved batch sizes (streaming +
    intra-mask tile sharding produces ragged final shards) must match the
    unfused executor on every call — a shape-key collision in the fused
    chains' buffer cache would poison whichever geometry ran second."""
    name, model = zoo_model
    masks = _random_masks(5, 32, seed=23)[:, None]
    plain = ModelExecutor(model)
    fused = ModelExecutor(model, compile=True)
    for n in (4, 1, 3, 4, 2, 5, 1, 4):
        batch = masks[:n]
        np.testing.assert_allclose(
            fused.run_batch(batch), plain.run_batch(batch), err_msg=f"{name} N={n}", **TOL
        )


def test_compiled_pipeline_alternating_batch_sizes(model):
    masks = _random_masks(6, 32, seed=31)
    plain = InferencePipeline(model, ExecutionConfig(batch_size=4))
    fused = InferencePipeline(model, ExecutionConfig(batch_size=4, compile=True))
    # Ragged splits: 6 masks at bs=4 -> shards of 4 and 2; then bs=3 -> 3+3;
    # then bs=5 -> 5+1 — all through the same compiled engine.
    for bs in (4, 3, 5, 4, 1):
        np.testing.assert_allclose(
            fused.predict(masks, batch_size=bs), plain.predict(masks, batch_size=bs),
            err_msg=f"batch_size={bs}", **TOL,
        )


# --------------------------------------------------------------------- #
# Composition with the worker pool
# --------------------------------------------------------------------- #
def test_compiled_unet_composes_with_worker_pool(tiny_model_factory):
    """The new fused transposed-conv chains (UNet up path) must stay
    bit-identical under worker-pool sharding, like every other fused op."""
    unet = tiny_model_factory("unet")
    masks = _random_masks(6, 32, seed=13)
    reference = InferencePipeline(unet, ExecutionConfig(batch_size=2, compile=True)).predict(masks)
    with InferencePipeline(
        unet, ExecutionConfig(batch_size=2, num_workers=2, compile=True)
    ) as parallel:
        np.testing.assert_array_equal(parallel.predict(masks), reference)


def test_compiled_composes_with_worker_pool(model):
    masks = _random_masks(6, 32)
    serial = InferencePipeline(model, ExecutionConfig(batch_size=4, compile=True))
    reference = serial.predict(masks)
    with InferencePipeline(
        model, ExecutionConfig(batch_size=4, num_workers=2, compile=True)
    ) as parallel:
        assert isinstance(parallel.executor, WorkerPoolExecutor)
        assert parallel.compiled and parallel.executor.compiled
        assert "[compiled]" in parallel.name and "workers=2" in parallel.name
        np.testing.assert_array_equal(parallel.predict(masks), reference)


def test_compiled_stitched_worker_pool_bit_identical(model):
    masks = _random_masks(2, 64, seed=9)
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    serial = InferencePipeline(model, ExecutionConfig(**kwargs))
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as parallel:
        np.testing.assert_array_equal(
            parallel.predict(masks, stitch=True), serial.predict(masks, stitch=True)
        )


def test_compiled_run_gp_is_partition_invariant(model):
    """The fused GP op runs the whole batch it is handed: per-tile calls
    give the same bits."""
    tiles = _random_masks(7, 32, seed=37)[:, None]
    executor = ModelExecutor(model, compile=True)
    whole = executor.run_gp(tiles)
    singles = np.concatenate([executor.run_gp(tiles[i : i + 1]) for i in range(7)])
    np.testing.assert_array_equal(whole, singles)


def test_compiled_gp_features_pooled_match_serial(model):
    mask = _random_masks(1, 64, seed=35)[0]
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    reference = InferencePipeline(model, ExecutionConfig(**kwargs)).gp_features(mask)
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as sharded:
        np.testing.assert_array_equal(sharded.gp_features(mask), reference)


# --------------------------------------------------------------------- #
# Micro-batch sizing regression (satellite)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("height,width", [(64, 64), (512, 512), (4096, 4096), (16384, 16384)])
def test_micro_batch_is_never_zero(model, height, width):
    """A tile whose activations exceed the whole cache budget still runs."""
    executor = ModelExecutor(model)
    micro = executor._micro_batch(height, width)
    assert micro >= 1
    if height >= 4096:
        assert micro == 1  # budget exceeded: exactly one sample at a time


def test_micro_batch_degenerate_geometry_does_not_divide_by_zero(model):
    assert ModelExecutor(model)._micro_batch(0, 0) >= 1
    assert ModelExecutor(model, compile=True)._micro_batch(0, 0) >= 1


@pytest.mark.parametrize("height,width", [(32, 32), (64, 64), (128, 128), (4096, 4096)])
def test_compiled_micro_batch_budgets_fused_working_set(model, height, width):
    """Compiled engines budget their micro-batches with the same activation
    estimate as unfused ones, scaled by the lane's itemsize: with the fused
    convs on the compute team, 2 tiles per forward beat 1 at 64 px (a
    separate, wider compiled estimate gave 1).  Never 0."""
    plain = ModelExecutor(model)
    fused = ModelExecutor(model, compile=True)
    expected_plain = max(
        1,
        plain.MICRO_BATCH_BUDGET_BYTES // (plain.ACTIVATION_CHANNEL_ESTIMATE * height * width * 8),
    )
    expected_fused = max(
        1,
        fused.MICRO_BATCH_BUDGET_BYTES
        // (fused.ACTIVATION_CHANNEL_ESTIMATE * height * width * fused.dtype.itemsize),
    )
    assert plain._micro_batch(height, width) == expected_plain
    assert fused._micro_batch(height, width) == expected_fused
    assert fused._micro_batch(height, width) >= plain._micro_batch(height, width)


def test_compiled_micro_batch_on_figure6_tiles(model):
    """The measured geometries: 64x64 tiles micro-batch at 2 compiled, as
    unfused, and a 256 px large-tile mask stays at one per forward (its
    resident activations bound ``peak_rss_mb``).  Pinned to the float64
    lane explicitly: the float32 lane's samples are half the bytes, so its
    micro-batches are legitimately larger."""
    compiled = ModelExecutor(model, compile=True, backend="float64")
    assert ModelExecutor(model)._micro_batch(64, 64) == 2
    assert compiled._micro_batch(64, 64) == 2
    assert compiled._micro_batch(256, 256) == 1
