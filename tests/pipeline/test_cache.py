"""Tests for the incremental (patched) re-simulation plan.

``predict_patched`` re-simulates only the dirty tile windows of the golden
simulator's aerial image and splices their ownership regions into the cached
full-image map; the result must reproduce the plain ``predict`` output
exactly, serial and pooled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout.tiling import stitch_cores, tile_grid
from repro.litho import LithoSimulator
from repro.pipeline import (
    ExecutionConfig,
    InferencePipeline,
    PipelineStats,
    choose_patch_tile,
    ownership_slices,
)


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=31)


def _random_mask(size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# Ownership regions == scan-order core stitch
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("size, tile, margin", [(64, 32, 8), (96, 32, 4), (64, 64, 8)])
def test_ownership_slices_match_stitch_cores(size, tile, margin):
    rng = np.random.default_rng(7)
    specs = tile_grid((size, size), tile)
    tiles = rng.random((len(specs), tile, tile))
    expected = stitch_cores(tiles, specs, (size, size), margin)
    patched = np.zeros((size, size))
    for (local, target), window in zip(ownership_slices(specs, (size, size), margin), tiles):
        patched[target] = window[local]
    assert np.array_equal(patched, expected)


def test_ownership_slices_reject_oversized_margin():
    specs = tile_grid((64, 64), 32)
    with pytest.raises(ValueError):
        ownership_slices(specs, (64, 64), margin=9)  # 9 > 32 // 4


def test_choose_patch_tile():
    assert choose_patch_tile(128, 15) == 64    # smallest even divisor >= 4r
    assert choose_patch_tile(256, 15) == 64
    assert choose_patch_tile(128, 40) == 128   # no divisor fits: whole image
    assert choose_patch_tile(96, 15) == 96     # divisors top out at 48 < 60


# --------------------------------------------------------------------- #
# Patched aerial re-simulation (golden simulator)
# --------------------------------------------------------------------- #
def test_patched_simulator_matches_predict_over_perturbations(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    assert state.tile_size == 64 and state.n_tiles == 9

    mask = _random_mask(128)
    # First call: no ledger yet -> one native full refresh.
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.full_refreshes == 1

    # Local perturbation inside one window's core -> a patched call.
    mask = mask.copy()
    mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.patched_calls == 1
    assert 0 < state.last_stats.dirty_tiles < state.n_tiles

    # Exact repeat -> clean call, no tile re-simulated.
    out = pipeline.predict_patched(mask.copy(), state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.clean_calls == 1

    # Heavy perturbation -> the hybrid cost model prefers a native refresh.
    mask = _random_mask(128, seed=99)
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.full_refreshes == 2


def test_patched_simulator_trusts_candidate_windows(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    mask = _random_mask(128)
    pipeline.predict_patched(mask, state)

    mask = mask.copy()
    mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]
    dirty = state.dirty_windows(mask, None)
    out = pipeline.predict_patched(mask, state, candidates=dirty)
    assert np.array_equal(out, pipeline.predict(mask))
    # Only the candidate windows were compared and re-simulated.
    assert state.last_stats.dirty_tiles == len(dirty)


def test_patched_simulator_single_window_fallback(simulator):
    """Images no window divides degenerate to skip-if-unchanged, still exact."""
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((96, 96))
    assert state.n_tiles == 1
    mask = _random_mask(96)
    assert np.array_equal(pipeline.predict_patched(mask, state), pipeline.predict(mask))
    pipeline.predict_patched(mask.copy(), state)
    assert state.counters.clean_calls == 1
    mask[40:44, 40:44] = 1.0
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.full_refreshes == 2


def test_dirty_windows_trust_windows_outside_the_candidates(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    mask = _random_mask(128)
    before = pipeline.predict_patched(mask, state)
    # The state keeps its own copy: editing the caller's array is a change.
    # Each edit lies in one window only (first and last of the 3 x 3 grid).
    mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]
    mask[100:104, 100:104] = 1.0 - mask[100:104, 100:104]
    touched = [0, state.n_tiles - 1]
    assert state.dirty_windows(mask, None) == touched
    others = [i for i in range(state.n_tiles) if i not in touched]
    assert state.dirty_windows(mask, others) == []
    assert state.dirty_windows(mask, touched[:1] + others) == touched[:1]

    # A call whose candidates miss the edit trusts the old pixels: a clean call.
    assert np.array_equal(pipeline.predict_patched(mask, state, candidates=others), before)
    assert state.counters.clean_calls == 1
    # Patching one window records only that window's pixels.
    pipeline.predict_patched(mask, state, candidates=touched[:1])
    assert state.last_stats.dirty_tiles == 1
    assert state.dirty_windows(mask, None) == touched[1:]
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.dirty_windows(mask, None) == []


def test_dirty_windows_single_window(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((96, 96))
    mask = _random_mask(96)
    assert state.dirty_windows(mask, None) == [0]
    pipeline.predict_patched(mask, state)
    assert state.dirty_windows(mask.copy(), None) == []
    mask[40, 40] = 1.0 - mask[40, 40]
    assert state.dirty_windows(mask, None) == [0]
    assert state.dirty_windows(mask, []) == []


def test_patched_rejects_wrong_shape(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    with pytest.raises(ValueError):
        pipeline.predict_patched(_random_mask(64), state)


def test_incremental_state_rejects_non_square_masks(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    for shape in ((128, 64), (64, 128)):
        with pytest.raises(ValueError, match="needs a square mask"):
            pipeline.incremental_state(shape)


def test_patched_unsupported_engine_raises(tiny_model_factory):
    pipeline = InferencePipeline(tiny_model_factory("unet"), ExecutionConfig(batch_size=8))
    with pytest.raises(ValueError, match="golden simulator only"):
        pipeline.incremental_state((64, 64))
    # A stitchable model has no optical influence radius either.
    stitchable = InferencePipeline(
        tiny_model_factory("doinn"),
        ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8),
    )
    with pytest.raises(ValueError, match="golden simulator only"):
        stitchable.incremental_state((64, 64))


# --------------------------------------------------------------------- #
# Worker pool: patched plan through the num_workers x batch_size path
# --------------------------------------------------------------------- #
def test_patched_simulator_pooled_matches_serial(simulator):
    serial = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    with InferencePipeline(simulator, ExecutionConfig(batch_size=2, num_workers=2)) as pooled:
        state = pooled.incremental_state((128, 128))
        mask = _random_mask(128)
        assert np.array_equal(pooled.predict_patched(mask, state), serial.predict(mask))
        mask = mask.copy()
        mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]
        assert np.array_equal(pooled.predict_patched(mask, state), serial.predict(mask))
        assert state.counters.patched_calls == 1


def test_pipeline_stats_new_fields_default():
    stats = PipelineStats()
    assert stats.dirty_tiles == 0
