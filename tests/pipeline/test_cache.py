"""Tests for the incremental (patched) re-simulation plan.

``predict_patched`` adds the SOCS field deltas of the 16 px blocks a mask
edit changed into the cached field planes and recomputes the intensity
where they reach; the result must reproduce the plain ``predict`` output
(bit for bit on full refreshes and clean calls, within 1e-12 of clear field
on patched calls, equal resist), serial and pooled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import Layout, Rect
from repro.litho import LithoSimulator
from repro.opc.fragments import MaskPainter, _fill, build_mask, fragment_layout
from repro.pipeline import (
    ExecutionConfig,
    IncrementalState,
    InferencePipeline,
    PipelineStats,
    SimulatorExecutor,
)


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=31)


def _random_mask(size: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# Patched aerial re-simulation (golden simulator)
# --------------------------------------------------------------------- #
def test_patched_simulator_matches_predict_over_perturbations(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    assert state.n_tiles == 64  # 8 x 8 blocks of 16 px

    mask = _random_mask(128)
    # First call: nothing cached yet -> one full refresh.
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.full_refreshes == 1

    # Local perturbation inside one block -> a patched call.
    mask = mask.copy()
    mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.patched_calls == 1
    assert state.last_stats.dirty_tiles == 1

    # Exact repeat -> clean call, no block patched.
    out = pipeline.predict_patched(mask.copy(), state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.clean_calls == 1

    # Heavy perturbation -> the block-cost rule prefers a full refresh.
    mask = _random_mask(128, seed=99)
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.full_refreshes == 2


def test_patched_simulator_single_window_fallback(simulator):
    """A mask of one block: every edit refreshes, repeats are clean, exact."""
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((16, 16))
    assert state.n_tiles == 1
    mask = _random_mask(16)
    assert np.array_equal(pipeline.predict_patched(mask, state), pipeline.predict(mask))
    pipeline.predict_patched(mask.copy(), state)
    assert state.counters.clean_calls == 1
    mask[4:8, 4:8] = 1.0
    out = pipeline.predict_patched(mask, state)
    assert np.array_equal(out, pipeline.predict(mask))
    assert state.counters.full_refreshes == 2


def test_dirty_blocks_follow_the_last_simulated_mask(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((100, 100))
    assert state.grid == (7, 7)  # the last row and column overhang the mask
    mask = _random_mask(100)
    assert state.dirty_blocks(mask).tolist() == list(range(49))
    pipeline.predict_patched(mask, state)
    # The state keeps its own copy: editing the caller's array is a change.
    assert state.dirty_blocks(mask).size == 0
    mask[15, 16] = 1.0 - mask[15, 16]      # block (0, 1)
    mask[99, 99] = 1.0 - mask[99, 99]      # block (6, 6), a partial one
    assert state.dirty_blocks(mask).tolist() == [1, 48]
    pipeline.predict_patched(mask, state)
    assert state.last_stats.dirty_tiles == 2
    assert state.dirty_blocks(mask).size == 0


def test_block_cost_rule():
    state = IncrementalState(shape=(256, 256), radius=15, planes=5)
    assert not state.prefer_refresh(1)
    assert state.prefer_refresh(state.n_tiles)
    # The rule is a monotone threshold on the dirty count.
    flips = [n for n in range(1, state.n_tiles + 1) if state.prefer_refresh(n)]
    assert flips == list(range(flips[0], state.n_tiles + 1))
    # A smaller mask's whole-mask FFT is cheaper: it refreshes sooner.
    small = IncrementalState(shape=(128, 128), radius=15, planes=5)
    assert small.prefer_refresh(flips[0] - 1)


def _painter_steps(rng, fragments):
    """Offsets of a random move sequence: new offsets on a random subset,
    grow/trim sign flips, repaints of unmoved fragments (the old pixels come
    back) and returns to the offsets of two steps before."""
    offsets = [fragments.offset.copy()]
    for step in range(16):
        kind = step % 4
        picks = rng.random(len(fragments)) < 0.3
        offset = offsets[-1].copy()
        if kind == 0:
            offset[picks] = rng.uniform(-6.0, 6.0, size=int(picks.sum()))
        elif kind == 1:
            offset[picks] = -offset[picks]
        elif kind == 3 and len(offsets) > 2:
            offset = offsets[-3].copy()
        fragments.offset[:] = offset
        moved = np.flatnonzero(np.rint(offset) != np.rint(offsets[-1]))
        if kind == 2:
            moved = np.flatnonzero(picks)
        offsets.append(offset)
        yield kind, moved


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_painter_candidates_find_every_dirty_block(seed):
    """The pixels a ``MaskPainter`` repainted, handed to ``dirty_blocks``,
    give the blocks of the whole-mask compare at every step of a random
    move sequence, on a grid whose last blocks overhang the mask and with
    SRAF bars laid over the fragments' strips."""
    rng = np.random.default_rng(seed)
    size = 72
    layout = Layout(bounds=Rect(0, 0, 8.0 * size, 8.0 * size))
    for _ in range(6):
        w, h = (int(v) for v in rng.integers(2, 20, size=2))
        x, y = (int(v) for v in rng.integers(0, size - 2, size=2))
        layout.add(Rect(8.0 * x, 8.0 * y, 8.0 * min(x + w, size), 8.0 * min(y + h, size)))
    fragments = fragment_layout(layout, 8.0, int(rng.integers(3, 12)))
    # SRAF bars across the edges of the drawn rectangles.
    srafs = [(r0 - 3, c0 + 1, r0 + 2, c1 - 1) for r0, c0, r1, c1 in fragments.rects.tolist()]
    srafs = [tuple(int(np.clip(v, 0, size)) for v in box) for box in srafs]
    painter = MaskPainter(fragments, size, srafs)
    state = IncrementalState(shape=(size, size), radius=15, planes=5)
    assert state.grid == (5, 5)
    mask = painter.mask()
    state.last_mask = mask.copy()
    under_sraf = np.zeros(size * size, dtype=bool)
    _fill(under_sraf.reshape(size, size), srafs, True)
    flips = covered = 0
    for kind, moved in _painter_steps(rng, fragments):
        mask = build_mask(fragments, size, srafs, painter=painter, moved=moved)
        dirty = state.dirty_blocks(mask, painter.touched)
        assert dirty.tolist() == state.dirty_blocks(mask).tolist()
        assert np.isin(np.flatnonzero(mask != state.last_mask), painter.touched).all()
        if kind == 1:
            flips += int(np.count_nonzero(np.rint(fragments.offset[moved])))
        if kind == 2:
            assert dirty.size == 0   # a repaint in place restores every pixel
        covered += int(under_sraf[painter.touched].sum())
        state.last_mask = mask.copy()
    assert flips > 0 and covered > 0


def _edits(size: int, steps: int, seed: int):
    """Sparse edits: one 3 x 3 flip per step, every third at the far corner."""
    rng = np.random.default_rng(seed)
    for step in range(steps):
        if step % 3 == 2:
            y = x = size - 3
        else:
            y, x = (int(v) for v in rng.integers(0, size - 3, 2))
        yield slice(y, y + 3), slice(x, x + 3)


def _patch_sequence(simulator, size: int, steps: int = 12, blas_threads: int | None = None):
    """Aerial and resist outputs of ``steps`` successive patched edits."""
    config = ExecutionConfig(batch_size=4, blas_threads=blas_threads)
    aerial = InferencePipeline(SimulatorExecutor(simulator, output="aerial"), config)
    resist = InferencePipeline(SimulatorExecutor(simulator, output="resist"), config)
    states = aerial.incremental_state((size, size)), resist.incremental_state((size, size))
    mask = _random_mask(size, seed=size)
    outputs = [(aerial.predict_patched(mask, states[0]), resist.predict_patched(mask, states[1]))]
    masks = [mask]
    for rows, cols in _edits(size, steps, seed=size + 1):
        mask = mask.copy()
        mask[rows, cols] = 1.0 - mask[rows, cols]
        masks.append(mask)
        outputs.append(
            (aerial.predict_patched(mask, states[0]), resist.predict_patched(mask, states[1]))
        )
    return aerial, resist, states, masks, outputs


@pytest.mark.parametrize(
    "variant, size",
    [("defocus 0", 128), ("defocus 120", 128), ("dose 1.1", 128), ("9 kernels", 128),
     ("defocus 0", 100), ("support 9", 100)],
)
def test_field_deltas_stay_exact_over_successive_edits(simulator, variant, size):
    """Each patched aerial stays within 1e-12 of clear field of predict, with
    equal resist, over a dozen successive edits: the packed planes (defocus
    0, odd plane count with 9 kernels), the defocused complex planes, a dose,
    partial edge blocks (100 px) and 9 px kernels, whose block grid overhangs
    the FFT layout."""
    engine = {
        "defocus 0": simulator,
        "defocus 120": simulator.with_defocus(120.0),
        "dose 1.1": simulator.with_dose(1.1),
        "9 kernels": LithoSimulator(pixel_size=16.0, num_kernels=9, kernel_support=31),
        "support 9": LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=9),
    }[variant]
    aerial, resist, states, masks, outputs = _patch_sequence(engine, size)
    fft_shape = aerial.executor.fft_shape((size, size))
    overhangs = states[0].fields.shape[1:] != fft_shape
    assert overhangs == (variant == "support 9")
    assert states[0].counters.full_refreshes == 1
    assert states[0].counters.patched_calls == len(masks) - 1
    if variant == "9 kernels":
        assert states[0].planes == 5   # four packed pairs and one kernel alone
    for mask, (patched_aerial, patched_resist) in zip(masks, outputs):
        np.testing.assert_allclose(patched_aerial, aerial.predict(mask), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(patched_resist, resist.predict(mask))


def test_field_deltas_bit_identical_across_compute_teams(simulator):
    """The deltas add in fixed block order on the calling thread and the full
    refresh is team-invariant, so teams of 1, 2 and 3 give the same bits."""
    runs = [_patch_sequence(simulator, 128, steps=6, blas_threads=t)[4] for t in (1, 2, 3)]
    for other in runs[1:]:
        for (a0, r0), (a1, r1) in zip(runs[0], other):
            np.testing.assert_array_equal(a0, a1)
            np.testing.assert_array_equal(r0, r1)


def test_failed_patch_refreshes_on_the_next_call(simulator, monkeypatch):
    """A call that fails halfway leaves no half-patched planes behind."""
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    mask = _random_mask(128)
    pipeline.predict_patched(mask, state)
    mask = mask.copy()
    mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]

    def half_patch(fields, deltas, origins):
        fields[:, :16, :16] += 1.0
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline.executor, "patch_fields", half_patch)
    with pytest.raises(KeyboardInterrupt):
        pipeline.predict_patched(mask, state)
    monkeypatch.undo()
    assert np.array_equal(pipeline.predict_patched(mask, state), pipeline.predict(mask))
    assert state.counters.full_refreshes == 2


def test_state_filled_by_another_simulator_raises(simulator):
    """Cached fields belong to the simulator that filled them: another dose
    (or defocus) patching them would mix two aerials."""
    first = InferencePipeline(SimulatorExecutor(simulator, output="aerial"))
    other = InferencePipeline(SimulatorExecutor(simulator.with_dose(1.3), output="aerial"))
    state = first.incremental_state((128, 128))
    mask = _random_mask(128)
    first.predict_patched(mask, state)
    mask = mask.copy()
    mask[8:12, 8:12] = 1.0 - mask[8:12, 8:12]
    with pytest.raises(ValueError, match="another simulator"):
        other.predict_patched(mask, state)
    # The state is untouched and still serves its own pipeline.
    np.testing.assert_allclose(first.predict_patched(mask, state), first.predict(mask), atol=1e-12)
    fresh = other.incremental_state((128, 128))
    np.testing.assert_array_equal(other.predict_patched(mask, fresh), other.predict(mask))


def test_patched_rejects_wrong_shape(simulator):
    pipeline = InferencePipeline(simulator, ExecutionConfig(batch_size=4))
    state = pipeline.incremental_state((128, 128))
    with pytest.raises(ValueError):
        pipeline.predict_patched(_random_mask(64), state)


@pytest.mark.parametrize("shape", [(96, 64), (64, 96)], ids=["96x64", "64x96"])
def test_non_square_masks_patch_within_round_off(simulator, shape):
    """Blocks need no square mask: over a dozen edits (some at the far
    corner) a 96 x 64 mask's patched aerial stays within 1e-12 of clear
    field of predict, and its resist equals predict's."""
    config = ExecutionConfig(batch_size=4)
    aerial = InferencePipeline(SimulatorExecutor(simulator, output="aerial"), config)
    resist = InferencePipeline(SimulatorExecutor(simulator, output="resist"), config)
    states = aerial.incremental_state(shape), resist.incremental_state(shape)
    assert states[0].grid == (shape[0] // 16, shape[1] // 16)
    rng = np.random.default_rng(5)
    mask = (rng.random(shape) > 0.8).astype(float)
    for step in range(12):
        if step:
            y, x = (int(rng.integers(0, n - 3)) for n in shape)
            if step % 3 == 2:
                y, x = shape[0] - 3, shape[1] - 3
            mask = mask.copy()
            mask[y : y + 3, x : x + 3] = 1.0 - mask[y : y + 3, x : x + 3]
        np.testing.assert_allclose(
            aerial.predict_patched(mask, states[0]), aerial.predict(mask), rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(resist.predict_patched(mask, states[1]), resist.predict(mask))
    assert states[0].counters.full_refreshes == 1
    assert states[0].counters.patched_calls == 11


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
# Worker pool: the patched plan runs in the parent
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
