"""Batched frequency-domain aerial images vs the seed per-kernel loop.

The batch-first :func:`repro.litho.aerial_image` replaces one ``fftconvolve``
per SOCS kernel with a single padded mask FFT multiplied against cached
kernel transfer functions, packed two real kernels per complex plane.  These
tests pin the contract of that refactor: numerical equivalence with
:func:`repro.litho.aerial_image_loop` within 1e-8 at defocus 0 and on the
complex kernels of a defocused pupil, batch/single consistency, the packing
rule and the caching behaviour of :class:`repro.litho.SOCSKernels`.  The
(mask group, plane chunk) units run on the process's compute team; the team
pins below hold every team size to the bits of one fixed-order loop over the
packed planes, in a workspace whose bytes stay bounded.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.fft import fft2, ifft2, next_fast_len

from repro.litho import (
    AerialWorkspace,
    LithoSimulator,
    aerial_image,
    aerial_image_loop,
    hopkins,
)
from repro.nn.backends import ComputeTeam, compute_threads


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=16.0, num_kernels=12)


def _random_masks(n: int, size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.7).astype(float)


# --------------------------------------------------------------------- #
# Equivalence with the seed per-kernel fftconvolve algorithm
# --------------------------------------------------------------------- #
def test_batched_matches_loop_single_mask(simulator):
    mask = _random_masks(1, 64)[0]
    np.testing.assert_allclose(
        aerial_image(mask, simulator.kernels),
        aerial_image_loop(mask, simulator.kernels),
        atol=1e-8,
    )


def test_batched_matches_loop_on_batch(simulator):
    masks = _random_masks(5, 48)
    reference = np.stack([aerial_image_loop(m, simulator.kernels) for m in masks])
    np.testing.assert_allclose(aerial_image(masks, simulator.kernels), reference, atol=1e-8)


def test_batched_matches_loop_unnormalized_and_dosed(simulator):
    mask = _random_masks(1, 32)[0]
    batched = aerial_image(mask, simulator.kernels, normalize=False, dose=1.05)
    loop = aerial_image_loop(mask, simulator.kernels, normalize=False, dose=1.05)
    np.testing.assert_allclose(batched, loop, rtol=1e-8)


def test_batch_entries_independent(simulator):
    """Each batch entry equals its own single-mask simulation."""
    masks = _random_masks(3, 32)
    batched = aerial_image(masks, simulator.kernels)
    for i, mask in enumerate(masks):
        np.testing.assert_allclose(batched[i], aerial_image(mask, simulator.kernels), atol=1e-12)


def test_non_square_masks(simulator):
    rng = np.random.default_rng(3)
    masks = (rng.random((2, 40, 56)) > 0.7).astype(float)
    reference = np.stack([aerial_image_loop(m, simulator.kernels) for m in masks])
    out = aerial_image(masks, simulator.kernels)
    assert out.shape == (2, 40, 56)
    np.testing.assert_allclose(out, reference, atol=1e-8)


@pytest.mark.parametrize("threads", [1, 2])
def test_defocused_batched_matches_loop(simulator, spread_units, threads):
    """Defocus makes the kernels complex: their imaginary remainders become
    real kernels of their own, and the batch still matches the loop."""
    defocused = simulator.with_defocus(120.0).kernels
    mask = _random_masks(1, 64, seed=2)[0]
    masks = _random_masks(4, 40, seed=3)
    reference = np.stack([aerial_image_loop(m, defocused) for m in masks])
    with compute_threads(threads):
        single = aerial_image(mask, defocused)
        batch = aerial_image(masks, defocused)
    np.testing.assert_allclose(single, aerial_image_loop(mask, defocused), atol=1e-8)
    np.testing.assert_allclose(batch, reference, atol=1e-8)


def test_odd_kernel_count_matches_loop():
    """Nine real kernels: the last plane holds one kernel alone."""
    kernels = LithoSimulator(pixel_size=16.0, num_kernels=9).kernels
    assert kernels.weighted_transfer_functions((80, 80)).shape[0] == 5
    masks = _random_masks(3, 48, seed=4)
    reference = np.stack([aerial_image_loop(m, kernels) for m in masks])
    np.testing.assert_allclose(aerial_image(masks, kernels), reference, atol=1e-8)


def test_loop_rejects_batches(simulator):
    with pytest.raises(ValueError):
        aerial_image_loop(np.zeros((2, 16, 16)), simulator.kernels)


# --------------------------------------------------------------------- #
# SOCSKernels caching
# --------------------------------------------------------------------- #
def _active(kernels) -> int:
    return int(np.count_nonzero(kernels.eigenvalues > 0.0))


def test_weighted_transfer_functions_cached_per_shape(simulator):
    kernels = simulator.kernels
    weighted = kernels.weighted_transfer_functions((80, 80))
    assert weighted.shape == (-(-_active(kernels) // 2), 80, 80)
    assert kernels.weighted_transfer_functions((80, 80)) is weighted
    assert kernels.weighted_transfer_functions((96, 96)) is not weighted


def test_packing_keeps_imaginary_parts_only_when_defocused(simulator):
    """At defocus 0 every kernel is real up to one phase: ``ceil(l'/2)``
    planes.  A defocused pupil keeps each kernel's imaginary remainder as a
    second real kernel: ``l'`` planes."""
    kernels = simulator.kernels
    defocused = simulator.with_defocus(120.0).kernels
    assert kernels.weighted_transfer_functions((80, 80)).shape[0] == -(-_active(kernels) // 2)
    assert defocused.weighted_transfer_functions((80, 80)).shape[0] == _active(defocused)


def test_clear_field_intensity_memoized(simulator):
    kernels = simulator.kernels
    value = kernels.clear_field_intensity()
    assert value > 0.0
    assert kernels.clear_field_intensity() == value


def test_simulator_aerial_accepts_batches(simulator):
    masks = _random_masks(3, 32)
    aerial = simulator.aerial(masks)
    assert aerial.shape == masks.shape
    np.testing.assert_allclose(aerial[1], simulator.aerial(masks[1]), atol=1e-12)


@pytest.mark.parametrize("defocus", [0.0, 120.0])
def test_field_deltas_add_up_to_the_edited_mask(simulator, defocus):
    """The planes ``aerial_image(fields=)`` leaves at FFT layout give its
    intensity back, and adding the planes of block deltas (one at the
    top-left corner, whose stamp starts in the layout's padding band, one
    overhanging the buffer's far edge) gives the planes of the edited mask
    over the whole buffer: the fields are linear in the mask."""
    kernels = (simulator if defocus == 0.0 else simulator.with_defocus(defocus)).kernels
    size, block = 40, 16
    radius = (kernels.support - 1) // 2
    mask = _random_masks(1, size, seed=3)[0]
    planes = kernels.packed_kernels().shape[0]
    fft_shape = hopkins.padded_fft_shape((size, size), kernels.support)
    assert fft_shape == (next_fast_len(size + kernels.support - 1),) * 2
    # The inverse transforms fill the whole FFT layout.
    fields = np.full((planes, *fft_shape), np.nan, dtype=np.complex128)
    aerial = aerial_image(mask, kernels, fields=fields)
    assert np.isfinite(fields).all()
    image = np.s_[:, radius : radius + size, radius : radius + size]
    np.testing.assert_allclose(
        hopkins.aerial_from_fields(fields[image], kernels), aerial, rtol=0, atol=1e-13
    )

    edited = mask.copy()
    edited[2:5, 1:4] = 1.0 - edited[2:5, 1:4]
    edited[36:40, 33:40] = 1.0 - edited[36:40, 33:40]
    origins = np.array([[0, 0], [32, 32]])
    assert 32 + block + kernels.support - 1 > fft_shape[0]
    deltas = np.zeros((2, block, block))
    for delta, (y, x) in zip(deltas, origins):
        part = edited[y : y + block, x : x + block] - mask[y : y + block, x : x + block]
        delta[: part.shape[0], : part.shape[1]] = part
    hopkins.add_field_deltas(fields, deltas, origins, kernels)
    expected = np.zeros_like(fields)
    aerial_image(edited, kernels, fields=expected)
    # Round-off of the planes' peak, also where they are near zero.
    np.testing.assert_allclose(fields, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


# --------------------------------------------------------------------- #
# Compute-team units: bits independent of the team size
# --------------------------------------------------------------------- #
def _chunking(masks: np.ndarray, kernels) -> tuple[tuple[int, int], int, int]:
    """``(fft_shape, kernel_chunk, mask_group)`` from the module's budgets."""
    n, h, w = masks.shape
    fft_shape = (next_fast_len(h + kernels.support - 1), next_fast_len(w + kernels.support - 1))
    per_field_bytes = fft_shape[0] * fft_shape[1] * 16
    kernel_chunk = max(1, hopkins._MASK_CHUNK_BUDGET_BYTES // per_field_bytes)
    mask_group = max(1, hopkins._CHUNK_BUDGET_BYTES // (kernel_chunk * per_field_bytes))
    return fft_shape, kernel_chunk, mask_group


def _packed_planes(kernels, fft_shape: tuple[int, int]) -> np.ndarray:
    """The defocus-0 packed stack built by hand: each kernel rotated by the
    phase of its largest tap, its real part weighted by ``sqrt(alpha)``,
    consecutive real kernels paired as ``r_2j + i r_2j+1``."""
    reals = []
    for alpha, kernel in zip(kernels.eigenvalues, kernels.kernels):
        if alpha > 0.0:
            peak = kernel.flat[np.argmax(np.abs(kernel))]
            reals.append(np.sqrt(alpha) * (kernel * (np.conj(peak) / np.abs(peak))).real)
    planes = np.zeros((-(-len(reals) // 2), *reals[0].shape), dtype=complex)
    planes.real[:] = reals[0::2]
    planes.imag[: len(reals) // 2] = reals[1::2]
    return fft2(planes, s=fft_shape, axes=(-2, -1))


def _fixed_order_aerial(masks: np.ndarray, kernels) -> np.ndarray:
    """The unnormalized aerial image as one loop over (mask group, plane
    chunk) of the packed planes in order: the order the team's chunk sums
    are added back in."""
    n, h, w = masks.shape
    fft_shape, kernel_chunk, mask_group = _chunking(masks, kernels)
    weighted = _packed_planes(kernels, fft_shape)
    start = (kernels.support - 1) // 2
    crop = (..., slice(start, start + h), slice(start, start + w))
    mask_hat = fft2(masks, s=fft_shape, axes=(-2, -1))
    intensity = np.zeros((n, h, w))
    for g0 in range(0, n, mask_group):
        group_hat = mask_hat[g0 : g0 + mask_group]
        for c0 in range(0, weighted.shape[0], kernel_chunk):
            fields = ifft2(group_hat[:, None] * weighted[None, c0 : c0 + kernel_chunk],
                           axes=(-2, -1))[crop]
            intensity[g0 : g0 + mask_group] += (fields.real**2 + fields.imag**2).sum(axis=1)
    return intensity


@pytest.fixture
def spread_units(monkeypatch):
    """Spread every unit over the team, however small these test shapes are."""
    monkeypatch.setattr(ComputeTeam, "MIN_UNIT_MACS", 0)


TEAM_CASES = {
    # One full mask: one group, two planes per chunk.
    "full_mask": (1, 128),
    # Nine full masks: several mask groups.
    "mask_groups": (9, 128),
    # A batch of windows: four planes per chunk, two chunks, two groups.
    "windows": (7, 80),
}


@pytest.mark.parametrize("case", sorted(TEAM_CASES))
def test_aerial_bits_do_not_depend_on_team_size(simulator, spread_units, case):
    n, size = TEAM_CASES[case]
    masks = _random_masks(n, size, seed=11)
    kernels = simulator.kernels
    _, kernel_chunk, mask_group = _chunking(masks, kernels)
    assert -(-_active(kernels) // 2) > kernel_chunk  # several chunks
    if case != "full_mask":
        assert n > mask_group  # several groups
    if case == "windows":
        assert kernel_chunk > 1
    expected = _fixed_order_aerial(masks, kernels)
    for threads in (1, 2, 3):
        with compute_threads(threads):
            with_workspace = hopkins._aerial_batch(masks, kernels, AerialWorkspace())
            without = hopkins._aerial_batch(masks, kernels)
        np.testing.assert_array_equal(with_workspace, expected, err_msg=f"team of {threads}")
        np.testing.assert_array_equal(without, expected, err_msg=f"team of {threads}")
    single = aerial_image(masks[0], kernels, normalize=False)
    np.testing.assert_array_equal(single, expected[0])


def test_workspace_stays_bounded_across_shapes(simulator, spread_units):
    """A full mask, then window batches of every count from 1 to 11, on a
    team of two: the workspace keeps one flat buffer per name (and team
    member) at the largest size seen, not one per shape.  Per member the
    field product is at most the chunk budget and the magnitude half of
    that; the chunk sums are one group's magnitude per member.  Buffers kept
    per shape and member held 19.4 MB for this stream (with one plane per
    kernel), over the bound."""
    kernels = simulator.kernels
    threads = 2
    bound = 2 * threads * hopkins._CHUNK_BUDGET_BYTES
    workspace = AerialWorkspace()
    stream = [_random_masks(1, 128, seed=5)] + [
        _random_masks(count, 48, seed=count) for count in range(1, 12)
    ]
    with compute_threads(threads):
        for masks in stream:
            got = hopkins._aerial_batch(masks, kernels, workspace)
            np.testing.assert_array_equal(got, _fixed_order_aerial(masks, kernels))
            assert workspace.nbytes <= bound, (masks.shape, workspace.nbytes)
