"""Tests for the result cache and the incremental (patched) re-simulation plan.

Two families of invariants:

* :class:`repro.pipeline.MaskResultCache` — bounded LRU semantics, the
  ``REPRO_RESULT_CACHE`` knob, and bit-identity of cache-served predictions
  (the miss subset runs as one smaller batch, which is equivalent by the same
  partition invariance the worker-pool sharding relies on).
* ``predict_patched`` — re-simulating only dirty tile windows and splicing
  their ownership regions into the cached full-image map must reproduce the
  plain ``predict`` output exactly, for the golden simulator (aerial patching)
  and for stitchable models (GP-feature patching), serial and pooled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout.tiling import extract_tiles, stitch_cores, tile_grid
from repro.litho import LithoSimulator
from repro.pipeline import (
    DEFAULT_CACHE_BUDGET_BYTES,
    ExecutionConfig,
    InferencePipeline,
    MaskResultCache,
    PipelineStats,
    RESULT_CACHE_ENV,
    choose_patch_tile,
    hash_array,
    ownership_slices,
    resolve_cache_budget,
)


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=31)


def _random_mask(size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# MaskResultCache primitives
# --------------------------------------------------------------------- #
def test_cache_hit_miss_counting():
    cache = MaskResultCache(budget_bytes=1 << 20)
    value = np.arange(16, dtype=np.float64).reshape(4, 4)
    key = hash_array(value)
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put(key, value)
    got = cache.get(key)
    assert np.array_equal(got, value)
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1 and cache.nbytes == value.nbytes


def test_cache_returns_copies():
    cache = MaskResultCache(budget_bytes=1 << 20)
    value = np.ones((4, 4))
    cache.put(b"k", value)
    value[:] = 7.0  # mutating the source must not reach the cache
    got = cache.get(b"k")
    assert np.array_equal(got, np.ones((4, 4)))
    got[:] = 9.0  # nor may mutating a returned value
    assert np.array_equal(cache.get(b"k"), np.ones((4, 4)))


def test_cache_lru_eviction_respects_budget():
    item = np.zeros((8, 8))  # 512 bytes each
    cache = MaskResultCache(budget_bytes=3 * item.nbytes)
    for name in (b"a", b"b", b"c"):
        cache.put(name, item)
    cache.get(b"a")  # refresh "a"; "b" becomes least recently used
    cache.put(b"d", item)
    assert cache.get(b"b") is None
    assert cache.get(b"a") is not None and cache.get(b"d") is not None
    assert cache.nbytes <= cache.budget_bytes


def test_cache_oversized_value_is_a_noop():
    cache = MaskResultCache(budget_bytes=64)
    cache.put(b"big", np.zeros((16, 16)))
    assert len(cache) == 0 and cache.get(b"big") is None


def test_cache_clear_and_invalid_budget():
    cache = MaskResultCache(budget_bytes=1 << 12)
    cache.put(b"k", np.zeros(4))
    cache.clear()
    assert len(cache) == 0 and cache.nbytes == 0
    with pytest.raises(ValueError):
        MaskResultCache(budget_bytes=0)


def test_hash_array_distinguishes_content_shape_dtype():
    base = np.arange(16, dtype=np.float64)
    assert hash_array(base) == hash_array(base.copy())
    assert hash_array(base) != hash_array(base.reshape(4, 4))
    assert hash_array(base) != hash_array(base.astype(np.float32))
    perturbed = base.copy()
    perturbed[3] += 1.0
    assert hash_array(base) != hash_array(perturbed)


# --------------------------------------------------------------------- #
# The REPRO_RESULT_CACHE knob
# --------------------------------------------------------------------- #
def test_resolve_cache_budget_argument_wins(monkeypatch):
    monkeypatch.setenv(RESULT_CACHE_ENV, "on")
    assert resolve_cache_budget(False) == 0
    assert resolve_cache_budget(True) == DEFAULT_CACHE_BUDGET_BYTES
    assert resolve_cache_budget(12345) == 12345


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("", 0),
        ("off", 0),
        ("0", 0),
        ("on", DEFAULT_CACHE_BUDGET_BYTES),
        ("true", DEFAULT_CACHE_BUDGET_BYTES),
        ("4096", 4096),
    ],
)
def test_resolve_cache_budget_env(monkeypatch, raw, expected):
    monkeypatch.setenv(RESULT_CACHE_ENV, raw)
    assert resolve_cache_budget(None) == expected


def test_resolve_cache_budget_rejects_junk(monkeypatch):
    monkeypatch.setenv(RESULT_CACHE_ENV, "sometimes")
    with pytest.raises(ValueError):
        resolve_cache_budget(None)


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
# Result cache in front of InferencePipeline.run
# --------------------------------------------------------------------- #
def test_pipeline_result_cache_repeats_bit_identical(simulator):
    masks = np.stack([_random_mask(64, seed=s) for s in (1, 2)])
    plain = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    cached = InferencePipeline(simulator, ExecutionConfig(batch_size=4, result_cache=True))
    expected = plain.predict(masks)

    first = cached.run(masks)
    assert np.array_equal(first.outputs[:, 0], expected)
    assert first.stats.cache_hits == 0 and first.stats.cache_misses == 2

    second = cached.run(masks)
    assert np.array_equal(second.outputs[:, 0], expected)
    assert second.stats.cache_hits == 2 and second.stats.cache_misses == 0
    assert second.stats.num_batches == 0  # nothing touched the executor


def test_pipeline_result_cache_mixed_batch(simulator):
    seen = _random_mask(64, seed=1)
    fresh = _random_mask(64, seed=3)
    plain = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    cached = InferencePipeline(simulator, ExecutionConfig(batch_size=4, result_cache=True))
    cached.predict(seen)

    batch = np.stack([fresh, seen, fresh])  # duplicate miss + one hit
    result = cached.run(batch)
    assert np.array_equal(result.outputs[:, 0], plain.predict(batch))
    assert result.stats.cache_hits == 1 and result.stats.cache_misses == 2


def test_pipeline_result_cache_disabled_by_default(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    assert pipeline.result_cache is None
    stats = pipeline.run(_random_mask(64)).stats
    assert stats.cache_hits == 0 and stats.cache_misses == 0


def test_model_result_cache_keys_by_execution_plan(tiny_model_factory):
    """The same mask under naive vs stitched plans must not share entries."""
    model = tiny_model_factory("doinn")
    mask = _random_mask(64)
    pipeline = InferencePipeline(
        model,
        ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8, result_cache=True),
    )
    stitched = pipeline.predict(mask, stitch=True)
    naive = pipeline.predict_naive(mask)
    assert not np.array_equal(stitched, naive)
    # Repeats of each plan come back from their own entry, unchanged.
    assert np.array_equal(pipeline.predict(mask, stitch=True), stitched)
    assert np.array_equal(pipeline.predict_naive(mask), naive)


# --------------------------------------------------------------------- #
# Patched aerial re-simulation (golden simulator)
# --------------------------------------------------------------------- #
def test_patched_simulator_matches_predict_over_perturbations(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    assert state.mode == "aerial" and state.tile_size == 64 and state.n_tiles == 9

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


def test_patched_populates_result_cache(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4, result_cache=True))
    state = pipeline.incremental_state((128, 128))
    mask = _random_mask(128)
    out = pipeline.predict_patched(mask, state)
    result = pipeline.run(mask)
    assert result.stats.cache_hits == 1
    assert np.array_equal(result.outputs[0, 0], out)


# --------------------------------------------------------------------- #
# Patched GP re-simulation (stitchable models)
# --------------------------------------------------------------------- #
def test_patched_gp_matches_stitched_bit_for_bit(tiny_model_factory):
    model = tiny_model_factory("doinn")
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8)
    )
    state = pipeline.incremental_state((64, 64))
    assert state.mode == "gp"

    mask = _random_mask(64)
    for step in range(4):
        out = pipeline.predict_patched(mask, state)
        assert np.array_equal(out, pipeline.predict(mask, stitch=True))
        mask = mask.copy()
        mask[2 * step, 3 * step] = 1.0 - mask[2 * step, 3 * step]
    assert state.counters.patched_calls >= 1


def test_patched_gp_dirty_windows_are_the_windows_of_the_edit(tiny_model_factory):
    model = tiny_model_factory("doinn")
    pipeline = InferencePipeline(
        model, ExecutionConfig(tile_size=32, batch_size=8, optical_diameter_pixels=8)
    )
    state = pipeline.incremental_state((64, 64))
    mask = _random_mask(64)
    pipeline.predict_patched(mask, state)
    for row, col in ((3, 5), (20, 40), (60, 60)):
        mask = mask.copy()
        mask[row, col] = 1.0 - mask[row, col]
        windows = [
            i
            for i, s in enumerate(state.specs)
            if s.y0 <= row < s.y0 + s.size and s.x0 <= col < s.x0 + s.size
        ]
        assert state.dirty_windows(mask, None) == windows
        out = pipeline.predict_patched(mask, state)
        assert state.last_stats.dirty_tiles == len(windows)
        assert np.array_equal(out, pipeline.predict(mask, stitch=True))


def test_patched_unsupported_engine_raises(tiny_model_factory):
    pipeline = InferencePipeline(tiny_model_factory("unet"), ExecutionConfig(batch_size=8))
    with pytest.raises(ValueError):
        pipeline.incremental_state((64, 64))


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
    assert stats.cache_hits == 0
    assert stats.cache_misses == 0
    assert stats.dirty_tiles == 0


# --------------------------------------------------------------------- #
# Compute identity in the cache key (PR 8 bugfix)
# --------------------------------------------------------------------- #
def test_result_cache_keys_by_compute_backend(tiny_model_factory):
    """Bugfix pin: the key folds in the compute identity (engine + backend
    lane + lane dtype), so a float32-lane pipeline sharing a cache store with
    a float64 one is never served the other lane's entries — previously the
    key was mask content alone and the first lane to run poisoned the rest."""
    model = tiny_model_factory("doinn")
    masks = np.stack([_random_mask(32, seed=s) for s in (1, 2)])
    p64 = InferencePipeline(model, ExecutionConfig(batch_size=4, compile=True, result_cache=True))
    first = p64.run(masks)
    assert first.stats.cache_misses == 2

    p32 = InferencePipeline(model, ExecutionConfig(batch_size=4, compile=True, backend="float32"))
    p32.result_cache = p64.result_cache  # deliberately share the store
    crossed = p32.run(masks)
    assert crossed.stats.cache_hits == 0 and crossed.stats.cache_misses == 2

    # The float64 entries are untouched: a re-run hits them bit-identically,
    # and a fresh same-lane pipeline computes the same identity.
    again = p64.run(masks)
    assert again.stats.cache_hits == 2 and again.stats.cache_misses == 0
    assert np.array_equal(again.outputs, first.outputs)
    twin = InferencePipeline(model, ExecutionConfig(batch_size=4, compile=True))
    twin.result_cache = p64.result_cache
    assert twin.run(masks).stats.cache_hits == 2


def test_result_cache_distinguishes_simulator_from_model(simulator, tiny_model_factory):
    """The golden simulator's identity ("golden") differs from any model
    engine's, so a shared store keyed on the same mask never crosses them."""
    mask = _random_mask(32)
    sim = InferencePipeline(simulator, ExecutionConfig(batch_size=4, result_cache=True))
    sim.predict(mask)
    model = InferencePipeline(tiny_model_factory("doinn"), ExecutionConfig(batch_size=4))
    model.result_cache = sim.result_cache
    assert model.run(mask).stats.cache_hits == 0
