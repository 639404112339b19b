"""Aerial-image computation with the SOCS approximation of the Hopkins model.

Implements paper eq. (2)/(3): the aerial intensity is the weighted sum of the
squared magnitudes of the mask convolved with each SOCS kernel,

``I(m, n) = sum_k alpha_k * | h_k (x) M |^2``.

Convolutions are computed in the Fourier domain — exactly the "move to Fourier
space" optimization the paper describes — and the implementation is
**batch-first**: :func:`aerial_image` accepts a single mask ``(H, W)`` or a
stack of masks ``(N, H, W)``, computes **one** zero-padded FFT per mask and
reuses it across every SOCS kernel.  The kernels' frequency-domain transfer
functions are precomputed once per FFT shape and cached on
:class:`~repro.litho.kernels.SOCSKernels`, packed two real kernels per complex
plane: for a real mask one inverse transform yields both kernels' fields as
its real and imaginary parts.  Simulating a stream of same-size masks (the
inference-pipeline hot path) thus costs ``1 + ceil(l'/2)`` transforms per mask
at defocus 0 (``l'`` kernels with a positive eigenvalue; a defocused pupil
makes the kernels complex and gives ``l'`` planes) instead of the ``3 * l`` a
per-kernel ``fftconvolve`` loop pays.  Masks must be real; :func:`aerial_image`
casts them to float64.

Each (mask group, plane chunk) pair of the inverse transforms is one work
unit of the process's compute team (:func:`repro.nn.backends.compute_team`),
which a serial simulator pipeline sizes for each call and which is a team
of one anywhere else.  The chunk sums are added back in a fixed order, so
the result is bit-identical at every team size.  An
:class:`AerialWorkspace` holds each member's scratch in one grow-only flat
buffer per name.

:func:`aerial_image_loop` retains the seed per-kernel ``fftconvolve``
algorithm; it is the reference the batched path is validated against (within
1e-8) and the baseline of ``benchmarks/bench_pipeline_throughput.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.signal import fftconvolve

from ..nn.backends import compute_team
from .kernels import SOCSKernels

__all__ = ["AerialWorkspace", "aerial_image", "aerial_image_loop", "clear_field_intensity"]

# Upper bound (bytes) on the complex field scratch array of one chunk.
# Small enough to stay cache-resident (a 128 MB scratch measured ~2x slower on
# 8-mask batches than a few MB), large enough to amortize the per-ifft2
# dispatch.
_CHUNK_BUDGET_BYTES = 4 * 1024 * 1024
# Per-mask budget that fixes the *kernel* chunking.  The kernel chunk size
# must not depend on the batch size: it sets the grouping of the SOCS
# accumulation ``sum_k |field_k|^2``, and a batch-dependent grouping would
# make results differ in the last ULP between a whole batch and its shards —
# breaking the worker pool's bit-identical-to-serial invariant.  Batching
# economy comes from grouping *masks* instead (mask sums are independent).
_MASK_CHUNK_BUDGET_BYTES = 1024 * 1024


class AerialWorkspace:
    """Reusable scratch buffers for the batched aerial-image hot loop.

    The per-chunk complex field product, the squared-magnitude scratch and
    the per-chunk sums are the big allocations :func:`aerial_image` repeats
    on every call; an executor that simulates a stream of batches (the
    inference pipeline, one per worker process) hands the same workspace to
    every call.  Each name (and each compute-team member, for the scratch a
    member owns) keeps one grow-only flat buffer, viewed at each call's
    shape, so a stream of different shapes (whole layouts, then window
    batches of any count) holds one buffer per name and member at the
    largest size seen, never one per shape.

    Only scratch that is dead once the call returns lives here — the returned
    intensity is always freshly allocated, so callers can hold results across
    subsequent simulations.  The workspace deliberately pickles empty: buffers
    are per-process scratch, and shipping them to pool workers would only
    inflate the executor payload.
    """

    def __init__(self) -> None:
        self._flat: dict = {}

    def buffer(self, key: str, shape: tuple, dtype, member: int = 0) -> np.ndarray:
        """An uninitialized view of ``key``'s buffer at ``shape``/``dtype``.

        ``member`` selects a compute-team member's own buffer; no two
        members share one, so units running at once never overlap.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        slot = (key, member, dtype.str)
        flat = self._flat.get(slot)
        if flat is None or flat.size < size:
            flat = np.empty(size, dtype=dtype)
            self._flat[slot] = flat
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by every buffer of the workspace."""
        return sum(flat.nbytes for flat in self._flat.values())

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._flat = {}


def clear_field_intensity(kernels: SOCSKernels) -> float:
    """Aerial intensity produced by a fully transparent (clear-field) mask.

    Used to normalize aerial images so resist thresholds can be expressed as a
    fraction of the open-frame dose, which is how resist models are calibrated
    in practice.  The value is memoized on the kernel stack.
    """
    intensity = kernels.clear_field_intensity()
    if intensity <= 0.0:
        raise ValueError("optical kernels produce zero clear-field intensity")
    return intensity


def _aerial_batch(
    masks: np.ndarray, kernels: SOCSKernels, workspace: AerialWorkspace | None = None
) -> np.ndarray:
    """Unnormalized aerial intensity of a mask batch ``(N, H, W)``.

    One padded FFT per mask, multiplied against the cached ``sqrt(alpha_k)``-
    weighted kernel transfer functions, packed two real kernels per plane,
    so the SOCS sum is a plain ``sum_j |field_j|^2`` over the planes; the
    crop offset ``(K - 1) // 2`` reproduces ``fftconvolve``'s
    ``mode="same"`` centring exactly, so the result matches the per-kernel
    loop to floating-point round-off.

    Masks are processed in groups and planes in chunks.  Each (group, chunk)
    pair is one work unit of this process's compute team
    (:func:`repro.nn.backends.compute_team`): multiply, ``ifft2``, crop,
    ``|field|^2`` and the sum over the chunk's planes, in its team member's
    scratch.  The caller adds the chunk sums into the intensity in (group,
    chunk) order, so the bits depend neither on which member ran which unit
    nor on the team size.  Without a ``workspace`` the scratch lives for
    this call only.
    """
    n, h, w = masks.shape
    support = kernels.support
    fft_shape = (next_fast_len(h + support - 1), next_fast_len(w + support - 1))
    weighted = kernels.weighted_transfer_functions(fft_shape)    # (planes, Fh, Fw)

    intensity = np.zeros((n, h, w), dtype=np.float64)
    if weighted.shape[0] == 0:
        return intensity
    mask_hat = fft2(masks, s=fft_shape, axes=(-2, -1))           # (N, Fh, Fw)
    if workspace is None:
        workspace = AerialWorkspace()

    start = (support - 1) // 2
    rows = slice(start, start + h)
    cols = slice(start, start + w)

    # Fixed per-mask kernel chunk (accumulation grouping is batch-invariant);
    # masks are grouped so the live field scratch stays inside the budget.
    fft_size = fft_shape[0] * fft_shape[1]
    per_field_bytes = fft_size * 16
    kernel_chunk = max(1, int(_MASK_CHUNK_BUDGET_BYTES // max(per_field_bytes, 1)))
    mask_group = max(1, int(_CHUNK_BUDGET_BYTES // max(kernel_chunk * per_field_bytes, 1)))
    chunks = -(-weighted.shape[0] // kernel_chunk)
    team = compute_team()
    # Chunks in flight at once, each with its own chunk-sum slot; a group's
    # chunks run in rounds of this many, so the slots stay one per member.
    lanes = team.size
    for g0 in range(0, n, mask_group):
        group_hat = mask_hat[g0 : g0 + mask_group]
        size = group_hat.shape[0]
        group = intensity[g0 : g0 + size]
        # A complex multiply (~4 multiply-adds) and a radix-2 inverse FFT
        # (~2.5 log2 N per point) for each of a unit's fields.
        macs = int(size * kernel_chunk * fft_size * (4 + 2.5 * math.log2(fft_size)))
        for c0 in range(0, chunks, lanes):
            count = min(lanes, chunks - c0)
            sums = workspace.buffer("sums", (count, size, h, w), np.float64)

            def unit(index: int, member: int) -> None:
                first = (c0 + index) * kernel_chunk
                block = weighted[first : first + kernel_chunk]
                product = workspace.buffer(
                    "product", (size, block.shape[0], *fft_shape), np.complex128, member
                )
                np.multiply(group_hat[:, None], block[None], out=product)
                fields = ifft2(product, axes=(-2, -1), overwrite_x=True)[..., rows, cols]
                # |field|^2 via real^2 + imag^2 (avoids the sqrt inside
                # np.abs); imag^2 lands in the field's own, dead, imag part.
                magnitude = workspace.buffer("magnitude", fields.shape, np.float64, member)
                np.multiply(fields.real, fields.real, out=magnitude)
                np.multiply(fields.imag, fields.imag, out=fields.imag)
                magnitude += fields.imag
                np.sum(magnitude, axis=1, out=sums[index])

            team.run(unit, count, macs, count)
            for index in range(count):
                group += sums[index]
    return intensity


def aerial_image(
    mask: np.ndarray,
    kernels: SOCSKernels,
    normalize: bool = True,
    dose: float = 1.0,
    workspace: AerialWorkspace | None = None,
) -> np.ndarray:
    """Compute the aerial image of one mask or a batch of masks.

    Parameters
    ----------
    mask:
        Mask transmission image(s) in [0, 1]: either a single 2-D ``(H, W)``
        image or a batch ``(N, H, W)``.  The pixel pitch must equal
        ``kernels.pixel_size``.
    kernels:
        SOCS kernel stack from :func:`repro.litho.kernels.generate_kernels`.
    normalize:
        If true, divide by the clear-field intensity so a large open area has
        intensity 1.0.
    dose:
        Exposure dose multiplier (process-window exploration).
    workspace:
        Optional :class:`AerialWorkspace` whose scratch buffers are reused
        across calls (one per long-lived executor / worker process).

    Returns
    -------
    Non-negative intensity image(s) with the same leading shape as ``mask``:
    ``(H, W)`` for a single mask, ``(N, H, W)`` for a batch.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim == 2:
        batch = mask[None]
    elif mask.ndim == 3:
        batch = mask
    else:
        raise ValueError(f"mask must be 2-D or a 3-D batch, got shape {mask.shape}")

    intensity = _aerial_batch(batch, kernels, workspace)
    if normalize:
        intensity = intensity / clear_field_intensity(kernels)
    intensity *= dose
    return intensity[0] if mask.ndim == 2 else intensity


def aerial_image_loop(
    mask: np.ndarray,
    kernels: SOCSKernels,
    normalize: bool = True,
    dose: float = 1.0,
) -> np.ndarray:
    """Seed per-kernel ``fftconvolve`` algorithm (single 2-D mask only).

    Kept as the validation reference and micro-benchmark baseline for the
    batched frequency-domain path; ``tests/litho/test_hopkins_batch.py``
    asserts both agree within 1e-8.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")

    intensity = np.zeros_like(mask)
    for eigenvalue, kernel in zip(kernels.eigenvalues, kernels.kernels):
        if eigenvalue <= 0.0:
            continue
        field = fftconvolve(mask, kernel, mode="same")
        intensity += eigenvalue * np.abs(field) ** 2

    if normalize:
        intensity = intensity / clear_field_intensity(kernels)
    return dose * intensity
