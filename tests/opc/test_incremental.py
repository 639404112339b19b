"""Equivalence suite for incremental OPC re-simulation.

The central invariant: the incremental loop (dirty-tile tracking + patched
aerial re-simulation + fragment->tile candidate index) is an *execution plan*,
not a different algorithm — ``correct()`` with ``incremental=True`` must
produce the same ``final_mask``, the same EPE trajectory and the same mask
history as the always-full-simulation loop, bit for bit, across layouts,
SRAF settings and fragment freezing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout import ISPD2019_RULES, Layout, Rect, generate_via_layout
from repro.layout.tiling import tile_grid
from repro.litho import LithoSimulator
from repro.opc import (
    FragmentTileIndex,
    INCREMENTAL_ENV,
    OPCConfig,
    OPCEngine,
    build_mask,
    fragment_footprint,
    fragment_layout,
)


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=8.0, num_kernels=10, kernel_support=31)


def via_layout(seed: int = 3, size_nm: float = 1024.0) -> Layout:
    return generate_via_layout(
        ISPD2019_RULES, np.random.default_rng(seed), tile_size=size_nm, density_scale=1.5
    )


def assert_runs_equal(incremental, full):
    assert np.array_equal(incremental.final_mask, full.final_mask)
    assert np.array_equal(incremental.target, full.target)
    assert incremental.mask_history == full.mask_history
    assert len(incremental.epe_history) == len(full.epe_history)
    for mine, theirs in zip(incremental.epe_history, full.epe_history):
        assert np.array_equal(mine.values, theirs.values)
        assert mine.frozen_fragments == theirs.frozen_fragments


def correct_both(simulator, layout_seed: int, **config_kwargs):
    results = []
    for incremental in (True, False):
        engine = OPCEngine(
            simulator, OPCConfig(incremental=incremental, **config_kwargs)
        )
        results.append(engine.correct(via_layout(layout_seed)))
    return results


# --------------------------------------------------------------------- #
# Incremental == full, bit for bit
# --------------------------------------------------------------------- #
def test_incremental_matches_full(simulator):
    inc, full = correct_both(simulator, layout_seed=3, iterations=8)
    assert_runs_equal(inc, full)
    assert full.counters is None and full.dirty_history == []
    assert inc.counters is not None


def test_incremental_matches_full_with_freezing(simulator):
    inc, full = correct_both(
        simulator, layout_seed=3, iterations=10, freeze_after=2
    )
    assert_runs_equal(inc, full)
    assert inc.epe_history[-1].frozen_fragments > 0


def test_incremental_matches_full_without_srafs(simulator):
    inc, full = correct_both(simulator, layout_seed=5, iterations=6, use_srafs=False)
    assert_runs_equal(inc, full)


def test_incremental_single_tile_image(simulator):
    """64 px images have no valid sub-window: degenerate skip-if-unchanged."""
    for incremental in (True, False):
        engine = OPCEngine(simulator, OPCConfig(iterations=4, incremental=incremental))
        result = engine.correct(via_layout(seed=7, size_nm=512.0))
        if incremental:
            inc = result
            assert inc.counters.tiles_skipped == 0 or inc.counters.clean_calls > 0
        else:
            full = result
    assert_runs_equal(inc, full)


# --------------------------------------------------------------------- #
# Work ledger
# --------------------------------------------------------------------- #
def test_counters_account_for_every_iteration(simulator):
    iterations = 8
    engine = OPCEngine(simulator, OPCConfig(iterations=iterations, incremental=True))
    result = engine.correct(via_layout(3))
    counters = result.counters
    assert (
        counters.full_refreshes + counters.patched_calls + counters.clean_calls
        == iterations
    )
    assert len(result.dirty_history) == iterations
    n_tiles = 9  # 128 px / 64 px half-overlap grid
    assert result.dirty_history[0] == n_tiles  # first call is a full refresh
    assert sum(result.dirty_history) == counters.tile_equivalents(n_tiles)


def test_freezing_collapses_the_dirty_set(simulator):
    """With freeze_after, converged fragments stop dirtying their windows."""
    iterations = 16
    engine = OPCEngine(
        simulator, OPCConfig(iterations=iterations, incremental=True, freeze_after=2)
    )
    result = engine.correct(via_layout(3))
    n_tiles = 9
    spent = result.counters.tile_equivalents(n_tiles)
    assert spent < iterations * n_tiles
    # The tail of the run costs less than the head.
    head = sum(result.dirty_history[: iterations // 2])
    tail = sum(result.dirty_history[iterations // 2 :])
    assert tail < head


def test_incremental_env_flag_disables(simulator, monkeypatch):
    monkeypatch.setenv(INCREMENTAL_ENV, "0")
    result = OPCEngine(simulator, OPCConfig(iterations=2)).correct(via_layout(3))
    assert result.counters is None and result.dirty_history == []


# --------------------------------------------------------------------- #
# Fragment -> tile candidate index soundness
# --------------------------------------------------------------------- #
def test_fragment_footprint_bounds_every_offset():
    layout = via_layout(3)
    shapes = fragment_layout(layout, pixel_size=8.0)
    image_size = 128
    base = build_mask(shapes, image_size)
    fragment = shapes[0].fragments[0]
    row0, col0, row1, col1 = fragment_footprint(fragment, max_offset=12.0)
    for offset in (-12.0, -3.2, 2.0, 11.7, 12.0):
        fragment.offset = offset
        diff = build_mask(shapes, image_size) != base
        rows, cols = np.nonzero(diff)
        if rows.size:
            assert rows.min() >= row0 and rows.max() < row1
            assert cols.min() >= col0 and cols.max() < col1
    fragment.offset = 0.0


def test_tile_index_candidates_cover_changed_pixels():
    layout = via_layout(3)
    image_size = 128
    shapes = fragment_layout(layout, pixel_size=8.0)
    specs = tile_grid((image_size, image_size), 64)
    index = FragmentTileIndex(shapes, specs, image_size, max_offset=12.0)

    base = build_mask(shapes, image_size)
    moved = []
    rng = np.random.default_rng(17)
    for si in range(min(3, len(shapes))):
        fi = int(rng.integers(len(shapes[si].fragments)))
        shapes[si].fragments[fi].offset = float(rng.integers(-4, 5))
        moved.append((si, fi))
    perturbed = build_mask(shapes, image_size)

    candidates = index.tiles_for(moved)
    covered = np.zeros((image_size, image_size), dtype=bool)
    for ti in candidates:
        s = specs[ti]
        covered[s.y0 : s.y0 + s.size, s.x0 : s.x0 + s.size] = True
    diff = base != perturbed
    # Every changed pixel lies inside a candidate window: windows outside the
    # candidate set are safe to trust as unchanged.
    assert np.all(covered[diff])


def footprint_scan(shapes, specs, image_size, max_offset):
    """Reference: every fragment's clipped footprint against every window."""
    tiles = {}
    for si, shape in enumerate(shapes):
        for fi, fragment in enumerate(shape.fragments):
            row0, col0, row1, col1 = fragment_footprint(fragment, max_offset)
            row0, col0 = max(row0, 0), max(col0, 0)
            row1, col1 = min(row1, image_size), min(col1, image_size)
            tiles[(si, fi)] = tuple(
                ti
                for ti, s in enumerate(specs)
                if row0 < s.y0 + s.size and row1 > s.y0 and col0 < s.x0 + s.size and col1 > s.x0
            )
    return tiles


def aligned_layout(size_nm: float = 1024.0) -> Layout:
    """Rects on a 32 px grid (fragment spans end exactly on window edges) and
    one shifted a pixel off it (spans end one pixel past a window edge)."""
    layout = Layout(bounds=Rect(0, 0, size_nm, size_nm))
    for x0, y0, x1, y1 in (
        (256, 256, 768, 512),
        (0, 768, 256, 1024),
        (768, 0, 1024, 256),
        (264, 264, 776, 776),
    ):
        layout.add(Rect(x0, y0, x1, y1))
    return layout


@pytest.mark.parametrize(
    "seed,size_nm,tile", [(3, 1024.0, 64), (8, 2048.0, 64), (5, 1024.0, 32), (None, 1024.0, 64)]
)
def test_tile_index_matches_footprint_scan(seed, size_nm, tile):
    layout = aligned_layout(size_nm) if seed is None else via_layout(seed, size_nm)
    shapes = fragment_layout(layout, pixel_size=8.0)
    image_size = int(size_nm / 8.0)
    specs = tile_grid((image_size, image_size), tile)
    index = FragmentTileIndex(shapes, specs, image_size, max_offset=12.0)
    reference = footprint_scan(shapes, specs, image_size, 12.0)
    for key, tiles in reference.items():
        assert tuple(index.tiles_for([key])) == tiles
    keys = list(reference)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        picks = rng.choice(len(keys), size=min(7, len(keys)), replace=False)
        moved = [keys[k] for k in picks.tolist()]
        union = sorted({ti for key in moved for ti in reference[key]})
        assert index.tiles_for(moved) == union


def test_tile_index_empty_move_set():
    layout = via_layout(3)
    shapes = fragment_layout(layout, pixel_size=8.0)
    specs = tile_grid((128, 128), 64)
    index = FragmentTileIndex(shapes, specs, 128, max_offset=12.0)
    assert index.tiles_for([]) == []
    assert index.tiles_for([(10_000, 0)]) == []  # unknown ids are ignored


# --------------------------------------------------------------------- #
# Freeze semantics
# --------------------------------------------------------------------- #
def test_freezing_shrinks_the_measurement(simulator):
    engine = OPCEngine(simulator, OPCConfig(iterations=12, freeze_after=2))
    result = engine.correct(via_layout(3))
    frozen = [stats.frozen_fragments for stats in result.epe_history]
    assert frozen[0] == 0
    assert frozen[-1] > 0
    assert all(b >= a for a, b in zip(frozen, frozen[1:]))  # freezing is final
    total = frozen[-1] + result.epe_history[-1].values.size
    assert result.epe_history[0].values.size == total  # skipped, not dropped


def test_freeze_off_by_default(simulator):
    result = OPCEngine(simulator, OPCConfig(iterations=4)).correct(via_layout(3))
    assert all(stats.frozen_fragments == 0 for stats in result.epe_history)
