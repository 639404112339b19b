"""Equivalence suite for incremental OPC re-simulation.

The central invariant: the incremental loop (dirty-block tracking + SOCS
field-delta patches + whole-mask refreshes) is an *execution plan*, not a
different algorithm — ``correct()`` with ``incremental=True`` must
produce the same ``final_mask``, the same EPE trajectory and the same mask
history as the always-full-simulation loop, bit for bit, across layouts,
SRAF settings and fragment freezing.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.layout import ISPD2019_RULES, Layout, generate_via_layout
from repro.litho import LithoSimulator
from repro.opc import OPCConfig, OPCEngine
from repro.pipeline import IncrementalCounters


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
    """64 px images (4 x 4 blocks): a small grid still matches the full loop."""
    for incremental in (True, False):
        engine = OPCEngine(simulator, OPCConfig(iterations=4, incremental=incremental))
        result = engine.correct(via_layout(seed=7, size_nm=512.0))
        if incremental:
            inc = result
            assert inc.counters.tiles_skipped == 0 or inc.counters.clean_calls > 0
        else:
            full = result
    assert_runs_equal(inc, full)


def test_opc_loop_correction_is_pinned(simulator):
    """One correction of the benchmark's ``opc_loop`` shape (a 2048 nm via
    layout at 8 nm, 256 px; 10 kernels; 24 iterations, ``freeze_after=2``)
    reads the digest the per-strip painter, the per-rectangle fragment
    loop and the cropped-plane copy gave: final mask, mask history, EPE
    values, frozen counts and ``dirty_history``, and the work ledger of the
    incremental plan, clean calls included."""
    layout = via_layout(seed=2048, size_nm=2048.0)
    result = OPCEngine(simulator, OPCConfig(iterations=24, freeze_after=2)).correct(layout)
    digest = hashlib.sha256(result.final_mask.tobytes())
    for mask in result.mask_history:
        digest.update(mask.tobytes())
    for stats in result.epe_history:
        digest.update(stats.values.tobytes())
    frozen = [stats.frozen_fragments for stats in result.epe_history]
    digest.update(np.array(frozen, dtype=np.int64).tobytes())
    digest.update(np.array(result.dirty_history, dtype=np.int64).tobytes())
    assert result.final_mask.shape == (256, 256) and len(result.mask_history) == 25
    assert result.dirty_history[:7] == [256] * 6 + [23] and result.dirty_history[-1] == 0
    assert digest.hexdigest() == "7dda0ad18c2221337c85ee0bcea60fa2452b9c9f35b13f2109529734752823ab"
    assert result.counters == IncrementalCounters(
        full_refreshes=6, patched_calls=5, clean_calls=13, tiles_simulated=58, tiles_skipped=4550
    )


def test_loop_simulates_only_the_iterations_whose_mask_changed(simulator, monkeypatch):
    """With ``freeze_after`` the incremental loop calls ``predict_patched``
    once per iteration whose mask differs from the previous one (and for the
    first), records the others as clean calls, and still returns the
    always-full loop's result field for field."""
    config = OPCConfig(iterations=16, freeze_after=2)
    engine = OPCEngine(simulator, config)
    calls = []
    patched = engine.pipeline.predict_patched

    def spy(mask, state, candidates=None):
        calls.append(mask.copy())
        return patched(mask, state, candidates)

    monkeypatch.setattr(engine.pipeline, "predict_patched", spy)
    layout = via_layout(3)
    result = engine.correct(layout)
    full = OPCEngine(simulator, replace(config, incremental=False)).correct(layout)

    masks = list(result.mask_history)[: config.iterations]
    changed = [0] + [
        i for i in range(1, len(masks)) if not np.array_equal(masks[i], masks[i - 1])
    ]
    assert len(calls) == len(changed) < config.iterations
    assert all(np.array_equal(calls[k], masks[i]) for k, i in enumerate(changed))
    counters = result.counters
    assert counters.full_refreshes + counters.patched_calls == len(calls)
    assert counters.clean_calls == config.iterations - len(calls)
    assert [result.dirty_history[i] > 0 for i in range(config.iterations)] == [
        i in changed for i in range(config.iterations)
    ]
    # The last iterations ran with every fragment frozen.
    assert result.epe_history[-1].frozen_fragments == len(result.epe_history[0].values)
    assert_runs_equal(result, full)
    for mine, theirs in zip(result.epe_history, full.epe_history):
        assert mine.values.dtype == theirs.values.dtype and mine.pixel_size == theirs.pixel_size


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
    n_tiles = 64  # 128 px / 16 px blocks
    assert result.dirty_history[0] == n_tiles  # first call is a full refresh
    assert sum(result.dirty_history) == counters.tile_equivalents(n_tiles)


def test_freezing_collapses_the_dirty_set(simulator):
    """With freeze_after, converged fragments stop dirtying their blocks."""
    iterations = 16
    engine = OPCEngine(
        simulator, OPCConfig(iterations=iterations, incremental=True, freeze_after=2)
    )
    result = engine.correct(via_layout(3))
    n_tiles = 64
    spent = result.counters.tile_equivalents(n_tiles)
    assert spent < iterations * n_tiles
    # The tail of the run costs less than the head.
    head = sum(result.dirty_history[: iterations // 2])
    tail = sum(result.dirty_history[iterations // 2 :])
    assert tail < head


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
