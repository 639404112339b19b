"""Tests for aerial-image computation, resist models and the simulator facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.litho import (
    ConstantThresholdResist,
    LithoSimulator,
    SigmoidResist,
    aerial_image,
    clear_field_intensity,
)


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=8.0, num_kernels=10, kernel_support=31)


def test_clear_field_intensity_positive(simulator):
    assert clear_field_intensity(simulator.kernels) > 0.0


def test_aerial_image_of_open_frame_is_one(simulator):
    mask = np.ones((96, 96))
    aerial = simulator.aerial(mask)
    centre = aerial[32:64, 32:64]
    np.testing.assert_allclose(centre, np.ones_like(centre), atol=0.05)


def test_aerial_image_of_dark_mask_is_zero(simulator):
    aerial = simulator.aerial(np.zeros((64, 64)))
    np.testing.assert_allclose(aerial, np.zeros_like(aerial), atol=1e-12)


def test_aerial_image_nonnegative_and_bandlimited(simulator, rng):
    mask = (rng.random((96, 96)) > 0.7).astype(float)
    aerial = simulator.aerial(mask)
    assert aerial.min() >= 0.0
    # The image is low-pass: it must be much smoother than the random mask.
    mask_grad = np.abs(np.diff(mask, axis=0)).mean()
    aerial_grad = np.abs(np.diff(aerial, axis=0)).mean()
    assert aerial_grad < 0.5 * mask_grad


def test_aerial_dose_scales_linearly(simulator):
    mask = np.zeros((64, 64))
    mask[24:40, 24:40] = 1.0
    base = simulator.aerial(mask)
    double = simulator.with_dose(2.0).aerial(mask)
    np.testing.assert_allclose(double, 2.0 * base, rtol=1e-9)


def test_aerial_accepts_batches_rejects_higher_rank(simulator):
    # A 3-D stack is a batch of masks (batch-first pipeline contract) ...
    batch = aerial_image(np.zeros((2, 16, 16)), simulator.kernels)
    assert batch.shape == (2, 16, 16)
    # ... anything of higher rank is still rejected.
    with pytest.raises(ValueError):
        aerial_image(np.zeros((1, 2, 16, 16)), simulator.kernels)


def test_large_feature_prints_smaller_feature_does_not(simulator):
    large = np.zeros((128, 128))
    large[40:88, 40:88] = 1.0          # 384 nm square: prints
    tiny = np.zeros((128, 128))
    tiny[63:66, 63:66] = 1.0           # 24 nm square: below resolution
    assert simulator.simulate(large).resist.sum() > 100
    assert simulator.simulate(tiny).resist.sum() == 0


def test_large_square_prints_close_to_target_with_rounded_corners(simulator):
    mask = np.zeros((128, 128))
    mask[40:88, 40:88] = 1.0
    result = simulator.simulate(mask)
    printed = result.resist.sum()
    # Printed area stays within 25% of the drawn area ...
    assert abs(printed - mask.sum()) < 0.25 * mask.sum()
    # ... and the sharp mask corner is rounded away: a pixel just inside the
    # drawn corner does not print even though the feature centre does.
    assert result.resist[64, 64] == 1.0
    assert result.resist[40, 40] == 0.0


def test_resist_threshold_monotonicity(simulator):
    """Lower thresholds can only grow the printed region."""
    mask = np.zeros((128, 128))
    mask[48:80, 48:80] = 1.0
    aerial = simulator.aerial(mask)
    low = ConstantThresholdResist(0.15).develop(aerial).sum()
    high = ConstantThresholdResist(0.5).develop(aerial).sum()
    assert low >= high


def test_sigmoid_resist_approaches_threshold_resist():
    aerial = np.linspace(0.0, 1.0, 101)
    sharp = SigmoidResist(threshold=0.3, steepness=500.0).develop(aerial)
    binary = ConstantThresholdResist(threshold=0.3).develop(aerial)
    mismatched = np.abs(sharp - binary) > 0.5
    assert mismatched.sum() <= 1  # only the sample exactly at threshold may differ


def test_resist_validation():
    with pytest.raises(ValueError):
        ConstantThresholdResist(threshold=0.0)
    with pytest.raises(ValueError):
        SigmoidResist(steepness=-1.0)


def test_simulation_result_printed_area_units(simulator):
    mask = np.zeros((64, 64))
    mask[16:48, 16:48] = 1.0
    result = simulator.simulate(mask)
    assert result.printed_area == pytest.approx(result.resist.sum() * 64.0)


def test_defocus_degrades_contrast(simulator):
    mask = np.zeros((128, 128))
    mask[56:72, 40:88] = 1.0  # 128 nm wide line
    nominal_peak = simulator.aerial(mask).max()
    defocused_peak = simulator.with_defocus(120.0).aerial(mask).max()
    assert defocused_peak < nominal_peak


def test_kernels_are_cached(simulator):
    assert simulator.kernels is simulator.kernels


def test_with_dose_reuses_kernels(simulator):
    clone = simulator.with_dose(1.1)
    assert clone.kernels is simulator.kernels
