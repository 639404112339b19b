"""Tests for the batch-first inference pipeline (tile -> batch -> stitch).

The central invariant: routing the large-tile scheme through
:class:`repro.pipeline.InferencePipeline` is a pure refactor — its stitched
output on an oversized mask is *bit-for-bit* identical to the seed
``LargeTileSimulator.predict`` algorithm, which is replicated inline here as
the reference.  The suite also covers the executor adapters, batching plans,
run statistics, and the train/eval-state restoration satellite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DOINN, LargeTileSimulator
from repro.layout.tiling import TileSpec, extract_tiles, stitch_cores
from repro.litho import LithoSimulator
from repro.nn import Tensor, no_grad
from repro.pipeline import (
    ExecutionConfig,
    InferencePipeline,
    ModelExecutor,
    PipelineResult,
    SimulatorExecutor,
    as_executor,
)


@pytest.fixture(scope="module")
def model(tiny_model_factory) -> DOINN:
    return tiny_model_factory("doinn")


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=31)


def _random_mask(size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# Seed LargeTileSimulator algorithm, replicated as the golden reference
# --------------------------------------------------------------------- #
def _seed_predict(model: DOINN, mask: np.ndarray, tile: int, od_pixels: int) -> np.ndarray:
    """The pre-refactor ``LargeTileSimulator.predict`` loop, verbatim."""
    pool = model.config.pool_factor
    model.eval()
    tiles, specs = extract_tiles(mask, tile)
    gp_outputs = []
    with no_grad():
        for start in range(0, tiles.shape[0], 8):
            batch = Tensor(tiles[start : start + 8][:, None])
            gp_outputs.append(model.global_perception(batch).numpy())
    gp_tiles = np.concatenate(gp_outputs, axis=0)
    pooled_specs = [
        TileSpec(row=s.row, col=s.col, y0=s.y0 // pool, x0=s.x0 // pool, size=tile // pool)
        for s in specs
    ]
    margin = max(1, int(np.ceil(od_pixels / (2 * pool))))
    h, w = mask.shape
    gp = stitch_cores(gp_tiles, pooled_specs, (h // pool, w // pool), margin)
    with no_grad():
        x = Tensor(mask[None, None])
        lp = model.local_perception(x) if model.local_perception is not None else None
        out = model.reconstruction(Tensor(gp[None]), lp)
    model.train()
    return out.numpy()[0, 0]


def _seed_predict_naive(model: DOINN, mask: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        out = model(Tensor(mask[None, None]))
    model.train()
    return out.numpy()[0, 0]


def test_stitched_matches_seed_bit_for_bit(model):
    """Pipeline output on a 2x tile equals the seed algorithm exactly."""
    mask = _random_mask(64)
    expected = _seed_predict(model, mask, tile=32, od_pixels=8)
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8)
    )
    assert np.array_equal(pipeline.predict(mask, stitch=True), expected)


def test_naive_matches_seed_bit_for_bit(model):
    mask = _random_mask(64)
    expected = _seed_predict_naive(model, mask)
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8)
    )
    assert np.array_equal(pipeline.predict_naive(mask), expected)


def test_largetile_wrapper_matches_seed_bit_for_bit(model):
    """The LargeTileSimulator compatibility wrapper is unchanged vs seed."""
    mask = _random_mask(64, seed=5)
    runner = LargeTileSimulator(model, train_tile_size=32, optical_diameter_pixels=8)
    assert np.array_equal(runner.predict(mask), _seed_predict(model, mask, 32, 8))
    assert np.array_equal(runner.predict_naive(mask), _seed_predict_naive(model, mask))


# --------------------------------------------------------------------- #
# Train/eval-state restoration (satellite: no more train() clobbering)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("training", [True, False])
def test_pipeline_restores_train_eval_state(model, training):
    mask = _random_mask(64)
    model.train() if training else model.eval()
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    )
    pipeline.predict(mask, stitch=True)
    pipeline.predict_naive(mask)
    assert all(m.training is training for m in model.modules())
    model.train()


@pytest.mark.parametrize("training", [True, False])
def test_largetile_wrapper_restores_train_eval_state(model, training):
    mask = _random_mask(64)
    model.train() if training else model.eval()
    runner = LargeTileSimulator(model, train_tile_size=32, optical_diameter_pixels=8)
    runner.predict(mask)
    runner.predict_naive(mask)
    assert all(m.training is training for m in model.modules())
    model.train()


# --------------------------------------------------------------------- #
# Batching plans
# --------------------------------------------------------------------- #
def test_native_batching_matches_per_mask(model):
    rng = np.random.default_rng(2)
    masks = (rng.random((5, 1, 32, 32)) > 0.8).astype(float)
    pipeline = InferencePipeline(model, ExecutionConfig(batch_size=2))
    batched = pipeline.predict(masks)
    singles = np.stack([pipeline.predict(masks[i, 0]) for i in range(5)])[:, None]
    np.testing.assert_allclose(batched, singles, atol=1e-10)


def test_stitched_batch_matches_per_mask(model):
    rng = np.random.default_rng(4)
    masks = (rng.random((3, 64, 64)) > 0.8).astype(float)
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8)
    )
    batched = pipeline.predict(masks, stitch=True)
    singles = np.stack([pipeline.predict(m, stitch=True) for m in masks])
    np.testing.assert_allclose(batched, singles, atol=1e-10)


def test_input_layouts_round_trip(model):
    mask = _random_mask(32)
    pipeline = InferencePipeline(model)
    assert pipeline.predict(mask).shape == (32, 32)
    assert pipeline.predict(mask[None]).shape == (1, 32, 32)
    assert pipeline.predict(mask[None, None]).shape == (1, 1, 32, 32)
    with pytest.raises(ValueError):
        pipeline.predict(np.zeros((1, 2, 32, 32)))  # multi-channel
    with pytest.raises(ValueError):
        pipeline.predict(np.zeros((1, 1, 1, 32, 32)))


def test_empty_batch_returns_empty_output(model):
    pipeline = InferencePipeline(model)
    result = pipeline.run(np.zeros((0, 1, 32, 32)))
    assert result.outputs.shape == (0, 1, 32, 32)
    assert result.stats.num_masks == 0


def test_run_reports_stats(model):
    masks = np.stack([_random_mask(64, seed=s) for s in range(2)])
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    )
    result = pipeline.run(masks)
    assert isinstance(result, PipelineResult)
    assert result.outputs.shape == (2, 1, 64, 64)
    stats = result.stats
    assert stats.mode == "stitched"
    assert stats.num_masks == 2
    assert stats.num_tiles == 2 * 9  # 3x3 half-overlapping tiles per 2x mask
    # GP tiles are batched across the whole input stream (ceil(18/4) = 5
    # batches), not per mask (which would take 3 batches per mask = 6), plus
    # one reconstruction batch for the two full masks.
    assert stats.num_batches == 5 + 1
    assert stats.seconds > 0
    assert stats.masks_per_second > 0


def test_planner_auto_stitches_only_oversized(model):
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    )
    assert pipeline.run(_random_mask(32)).stats.mode == "native"
    assert pipeline.run(_random_mask(64)).stats.mode == "stitched"


def test_stitched_size_validation(model):
    pipeline = InferencePipeline(model, ExecutionConfig(tile_size=32, optical_diameter_pixels=8))
    with pytest.raises(ValueError):
        pipeline.predict(_random_mask(48), stitch=True)


def test_invalid_configuration(model):
    with pytest.raises(ValueError):
        InferencePipeline(model, ExecutionConfig(batch_size=0))
    with pytest.raises(ValueError):
        InferencePipeline(model, ExecutionConfig(tile_size=30))  # not divisible by pool factor


@pytest.mark.parametrize("batch_size", [0, -1])
def test_per_call_batch_size_below_one_raises(model, batch_size):
    """A per-call batch size below 1 is rejected, not replaced by the
    pipeline's own (0) or passed on to numpy (-1)."""
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    )
    mask = _random_mask(64)
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        pipeline.run(mask, batch_size=batch_size)
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        pipeline.gp_features(mask, batch_size=batch_size)
    # A plan read back from a document is checked the same way.
    plan = replace(pipeline.plan(mask), batch_size=batch_size)
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        pipeline.execute(plan, mask)
    assert pipeline.run(mask, batch_size=None).stats.num_batches > 0


# --------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------- #
def test_simulator_pipeline_matches_direct_simulation(simulator):
    masks = np.stack([_random_mask(32, seed=s) for s in range(3)])
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=2))
    resist = pipeline.predict(masks)
    expected = np.stack([simulator.resist_image(m) for m in masks])
    np.testing.assert_allclose(resist, expected, atol=1e-10)
    assert pipeline.run(masks).stats.mode == "native"  # size-agnostic engine


def test_simulator_executor_aerial_output(simulator):
    mask = _random_mask(32)
    pipeline = InferencePipeline(SimulatorExecutor(simulator, output="aerial"))
    np.testing.assert_allclose(pipeline.predict(mask), simulator.aerial(mask), atol=1e-12)
    with pytest.raises(ValueError):
        SimulatorExecutor(simulator, output="contour")


def test_as_executor_adapts_all_engine_kinds(model, simulator):
    assert isinstance(as_executor(model), ModelExecutor)
    assert isinstance(as_executor(simulator), SimulatorExecutor)
    executor = ModelExecutor(model)
    assert as_executor(executor) is executor
    with pytest.raises(TypeError):
        as_executor(object())
    with pytest.raises(TypeError):
        ModelExecutor(simulator)


def test_stitching_requires_capable_engine(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(tile_size=32))
    with pytest.raises(ValueError):
        pipeline.predict(_random_mask(64), stitch=True)
