"""Tests for EPE measurement and the iterative OPC engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout import ISPD2019_RULES, Layout, Rect, generate_via_layout, rasterize
from repro.litho import LithoSimulator
from repro.opc import (
    EPEStatistics,
    MaskHistory,
    OPCConfig,
    OPCEngine,
    fragment_layout,
    measure_layout_epe,
    rule_based_retarget,
)


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=8.0, num_kernels=10, kernel_support=31)


def single_via_layout(size=1024.0, via=56.0):
    layout = Layout(bounds=Rect(0, 0, size, size))
    centre = size / 2
    layout.add(Rect(centre - via / 2, centre - via / 2, centre + via / 2, centre + via / 2))
    return layout


# --------------------------------------------------------------------- #
# EPE measurement
# --------------------------------------------------------------------- #
def test_epe_zero_when_contour_matches_target():
    layout = single_via_layout(via=160.0)
    fragments = fragment_layout(layout, pixel_size=8.0)
    resist = rasterize(layout, pixel_size=8.0, image_size=128)
    stats = measure_layout_epe(resist, fragments, pixel_size=8.0)
    np.testing.assert_allclose(stats.values, np.zeros_like(stats.values))
    assert stats.mean_abs_nm == 0.0
    assert stats.violations(1.0) == 0


def test_epe_positive_when_printed_larger():
    layout = single_via_layout(via=160.0)
    fragments = fragment_layout(layout, pixel_size=8.0)
    bigger = single_via_layout(via=160.0 + 32.0)  # 2 pixels larger per side
    resist = rasterize(bigger, pixel_size=8.0, image_size=128)
    stats = measure_layout_epe(resist, fragments, pixel_size=8.0)
    assert np.all(stats.values > 0)
    assert stats.mean_abs_nm == pytest.approx(16.0, abs=8.0)


def test_epe_negative_when_printed_smaller():
    layout = single_via_layout(via=160.0)
    fragments = fragment_layout(layout, pixel_size=8.0)
    smaller = single_via_layout(via=160.0 - 32.0)
    resist = rasterize(smaller, pixel_size=8.0, image_size=128)
    stats = measure_layout_epe(resist, fragments, pixel_size=8.0)
    assert np.all(stats.values < 0)


def test_epe_negative_when_feature_missing():
    layout = single_via_layout(via=160.0)
    fragments = fragment_layout(layout, pixel_size=8.0)
    resist = np.zeros((128, 128))
    stats = measure_layout_epe(resist, fragments, pixel_size=8.0)
    assert np.all(stats.values < 0)


def test_epe_statistics_units():
    stats = EPEStatistics(values=np.array([1.0, -2.0, 3.0]), pixel_size=8.0)
    assert stats.mean_abs_nm == pytest.approx(16.0)
    assert stats.max_abs_nm == pytest.approx(24.0)
    assert stats.rms_nm == pytest.approx(np.sqrt(14.0 / 3.0) * 8.0)
    assert stats.violations(20.0) == 1


# --------------------------------------------------------------------- #
# Rule-based retargeting
# --------------------------------------------------------------------- #
def test_rule_based_retarget_grows_shapes():
    layout = single_via_layout()
    retargeted = rule_based_retarget(layout, bias=20.0)
    assert retargeted.shapes[0].width == pytest.approx(56.0 + 40.0)
    assert len(retargeted) == len(layout)


def test_rule_based_retarget_clips_to_bounds():
    layout = Layout(bounds=Rect(0, 0, 100, 100), shapes=[Rect(0, 0, 50, 50)])
    retargeted = rule_based_retarget(layout, bias=20.0)
    assert layout.bounds.contains_rect(retargeted.shapes[0])


# --------------------------------------------------------------------- #
# Iterative OPC engine
# --------------------------------------------------------------------- #
def test_opc_improves_single_via_printability(simulator):
    layout = single_via_layout()
    target = rasterize(layout, pixel_size=8.0, image_size=128)
    engine = OPCEngine(simulator, OPCConfig(iterations=8))
    result = engine.correct(layout)

    before = simulator.resist_image(target)
    after = simulator.resist_image(result.final_mask)
    # Without correction the 56 nm via does not print at all; with OPC it does,
    # and its printed area is close to the drawn area.
    assert before.sum() == 0
    assert after.sum() > 0.5 * target.sum()
    assert result.iterations == 8


def test_opc_reduces_mean_epe(simulator, rng):
    layout = generate_via_layout(ISPD2019_RULES, rng, tile_size=1024.0, density_scale=1.5)
    engine = OPCEngine(simulator, OPCConfig(iterations=10))
    result = engine.correct(layout)
    first = result.epe_history[0].mean_abs_nm
    last = result.epe_history[-1].mean_abs_nm
    assert last < first
    assert last < 12.0  # converges to within ~1.5 pixels on average


def test_opc_history_lengths(simulator):
    layout = single_via_layout()
    result = OPCEngine(simulator, OPCConfig(iterations=5)).correct(layout)
    assert len(result.epe_history) == 5
    assert len(result.mask_history) == 6  # includes the post-final-update mask
    assert result.mask_history[0].shape == result.final_mask.shape


def test_opc_without_history(simulator):
    layout = single_via_layout()
    result = OPCEngine(simulator, OPCConfig(iterations=3, record_history=False)).correct(layout)
    assert result.mask_history == []
    assert result.iterations == 3


def test_opc_mask_history_starts_at_design(simulator):
    layout = single_via_layout()
    config = OPCConfig(iterations=4, use_srafs=False)
    result = OPCEngine(simulator, config).correct(layout)
    np.testing.assert_allclose(result.mask_history[0], result.target)


def test_opc_masks_stay_binary(simulator):
    layout = single_via_layout()
    result = OPCEngine(simulator, OPCConfig(iterations=4)).correct(layout)
    for mask in result.mask_history:
        assert set(np.unique(mask)).issubset({0.0, 1.0})


def test_opc_final_mask_reflects_post_update_positions(simulator):
    """Regression: ``final_mask`` is the post-update mask, not the last simulated one.

    The loop used to overwrite ``result.final_mask`` with each *pre-update*
    mask (a dead store) before the post-loop rebuild; the invariant is that
    ``final_mask`` equals the last history entry and differs from the last
    simulated mask whenever the final move step changed anything.
    """
    layout = single_via_layout()
    result = OPCEngine(simulator, OPCConfig(iterations=6)).correct(layout)
    np.testing.assert_array_equal(result.final_mask, result.mask_history[-1])
    # The 56 nm via needs large corrections: the final update must move pixels.
    assert not np.array_equal(result.final_mask, result.mask_history[-2])


def test_opc_zero_iterations_returns_uncorrected_target(simulator):
    layout = single_via_layout()
    result = OPCEngine(simulator, OPCConfig(iterations=0, use_srafs=False)).correct(layout)
    np.testing.assert_array_equal(result.final_mask, result.target)
    assert result.iterations == 0
    assert len(result.mask_history) == 1
    np.testing.assert_array_equal(result.mask_history[0], result.target)


def test_epe_statistics_empty_values_are_zero():
    stats = EPEStatistics(values=np.array([]), pixel_size=8.0, frozen_fragments=4)
    assert stats.mean_abs_nm == 0.0
    assert stats.max_abs_nm == 0.0
    assert stats.rms_nm == 0.0
    assert stats.violations(1.0) == 0


# --------------------------------------------------------------------- #
# Bit-packed mask history
# --------------------------------------------------------------------- #
def test_mask_history_roundtrips_binary_masks(rng):
    masks = [(rng.random((32, 32)) > 0.5).astype(np.float64) for _ in range(5)]
    history = MaskHistory(masks)
    assert len(history) == 5
    for stored, original in zip(history, masks):
        assert stored.dtype == original.dtype
        np.testing.assert_array_equal(stored, original)
    np.testing.assert_array_equal(history[2], masks[2])
    np.testing.assert_array_equal(history[-1], masks[-1])
    assert all(np.array_equal(a, b) for a, b in zip(history[1:3], masks[1:3]))


def test_mask_history_packs_eightfold(rng):
    masks = [(rng.random((64, 64)) > 0.5).astype(np.float64) for _ in range(4)]
    history = MaskHistory(masks)
    raw_bytes = sum(m.nbytes for m in masks)
    assert history.nbytes <= raw_bytes / 8 + 4 * 64  # packbits + rounding slack


def test_mask_history_equality():
    a = np.eye(4)
    b = np.zeros((4, 4))
    history = MaskHistory([a, b])
    assert history == [a, b]
    assert history == MaskHistory([a, b])
    assert not history == [a]
    assert not history == [a, a]
    assert MaskHistory() == []


def test_mask_history_keeps_non_binary_masks_raw(rng):
    graded = rng.random((16, 16))
    history = MaskHistory([graded])
    np.testing.assert_array_equal(history[0], graded)
    returned = history[0]
    returned[:] = 0.0  # returned arrays never alias storage
    np.testing.assert_array_equal(history[0], graded)


def test_mask_history_stores_graded_masks_raw_and_painter_bits_packed(rng):
    """A graded float mask is stored as it is (no bits given, the binary
    check fails); a painter mask with its boolean image is packed as given."""
    graded = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    binary = (rng.random((16, 16)) > 0.5).astype(np.float64)
    history = MaskHistory()
    history.append(graded)
    assert history.nbytes == graded.nbytes
    history.append(binary, bits=binary != 0)
    assert history.nbytes == graded.nbytes + 16 * 16 // 8
    graded[:] = 0.0   # the stored snapshot is a copy
    assert history[0].tobytes() == np.linspace(0.0, 1.0, 256).reshape(16, 16).tobytes()
    assert history[1].dtype == np.float64 and history[1].tobytes() == binary.tobytes()


def test_opc_offsets_respect_bounds(simulator):
    layout = single_via_layout()
    config = OPCConfig(iterations=12, max_offset=5.0)
    engine = OPCEngine(simulator, config)
    result = engine.correct(layout)
    # The final mask cannot have grown any feature by more than max_offset
    # pixels per side: bound the total printed mask area accordingly.
    via_pixels = 7
    max_size = via_pixels + 2 * config.max_offset
    assert result.final_mask.sum() <= max_size**2 + 4 * 100  # + SRAF area allowance
