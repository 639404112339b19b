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

Each field plane is linear in the mask.  ``aerial_image(fields=...)`` runs
the inverse transforms in the caller's buffer, so it holds the planes at
*FFT layout* (:func:`padded_fft_shape`, image pixel ``(y, x)`` at
``[..., y + r, x + r]`` with ``r = (s - 1) // 2``) without a copy, and
:func:`add_field_deltas` adds the planes of a sparse mask edit into them,
so a cache of the planes follows a stream of small edits at the cost of
the edited blocks (:mod:`repro.pipeline.cache`); :func:`aerial_from_fields`
turns planes back into intensity.

:func:`aerial_image_loop` retains the seed per-kernel ``fftconvolve``
algorithm; it is the reference the batched path is validated against (within
1e-8), in the tests and in ``benchmarks/bench_pipeline_throughput.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.signal import fftconvolve

from ..nn.backends import compute_team
from .kernels import SOCSKernels

__all__ = [
    "AerialWorkspace",
    "add_field_deltas",
    "aerial_from_fields",
    "aerial_image",
    "aerial_image_loop",
    "clear_field_intensity",
    "padded_fft_shape",
]

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


def padded_fft_shape(shape: tuple[int, int], support: int) -> tuple[int, int]:
    """The zero-padded FFT shape of an ``(H, W)`` mask's aerial image:
    fast sizes of its linear convolution with ``support``-wide kernels."""
    return next_fast_len(shape[0] + support - 1), next_fast_len(shape[1] + support - 1)


def _aerial_batch(
    masks: np.ndarray,
    kernels: SOCSKernels,
    workspace: AerialWorkspace | None = None,
    fields: np.ndarray | None = None,
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
    this call only.  With a ``fields`` buffer ``(N, planes, >= Fh, >= Fw)``
    each unit multiplies and inverse-transforms in ``[..., :Fh, :Fw]`` of
    it instead of its scratch, leaving the planes there at FFT layout
    (pixel ``(y, x)`` at ``[..., y + r, x + r]``) and squaring the crop
    without overwriting it; the intensity bits do not depend on it.
    """
    n, h, w = masks.shape
    support = kernels.support
    fft_shape = padded_fft_shape((h, w), support)
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
                if fields is None:
                    product = workspace.buffer(
                        "product", (size, block.shape[0], *fft_shape), np.complex128, member
                    )
                else:
                    product = fields[g0 : g0 + size, first : first + block.shape[0]]
                    product = product[..., : fft_shape[0], : fft_shape[1]]
                np.multiply(group_hat[:, None], block[None], out=product)
                # A complex input with overwrite_x is transformed in place.
                planes = ifft2(product, axes=(-2, -1), overwrite_x=True)[..., rows, cols]
                # |field|^2 via real^2 + imag^2 (avoids the sqrt inside
                # np.abs), the first plane's straight into the chunk sum and
                # each further one added to it in plane order: the bits of a
                # sum over the plane axis, which numpy adds in sequence.
                # imag^2 lands in the field's own, dead, imag part, or in
                # scratch when the planes are kept.
                total = sums[index]
                for k in range(planes.shape[1]):
                    plane = planes[:, k]
                    magnitude = total
                    if k:
                        magnitude = workspace.buffer("magnitude", total.shape, np.float64, member)
                    np.multiply(plane.real, plane.real, out=magnitude)
                    if fields is None:
                        square = plane.imag
                    else:
                        square = workspace.buffer("square", total.shape, np.float64, member)
                    np.multiply(plane.imag, plane.imag, out=square)
                    magnitude += square
                    if k:
                        total += magnitude

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
    fields: np.ndarray | None = None,
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
    fields:
        Optional complex buffer ``(planes, >= Fh, >= Fw)`` per mask (with a
        leading ``N`` for a batch), ``(Fh, Fw)`` the
        :func:`padded_fft_shape`.  The inverse transforms run in its
        ``[..., :Fh, :Fw]``, which is left holding the mask's weighted SOCS
        field planes at FFT layout, pixel ``(y, x)`` at
        ``[..., y + r, x + r]`` with ``r = (kernels.support - 1) // 2``, for
        :func:`add_field_deltas`.

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

    if fields is not None and mask.ndim == 2:
        fields = fields[None]
    intensity = _aerial_batch(batch, kernels, workspace, fields)
    if normalize:
        intensity = intensity / clear_field_intensity(kernels)
    intensity *= dose
    return intensity[0] if mask.ndim == 2 else intensity


def add_field_deltas(
    fields: np.ndarray,
    deltas: np.ndarray,
    origins: np.ndarray,
    kernels: SOCSKernels,
    workspace: AerialWorkspace | None = None,
) -> None:
    """Add the field planes of a sparse mask edit into cached field planes.

    ``fields`` ``(planes, H', W')`` holds the planes :func:`aerial_image`
    wrote for a mask at FFT layout, image pixel ``(y, x)`` at
    ``[:, y + r, x + r]`` with ``r = (s - 1) // 2``.  ``deltas`` ``(n, b, b)``
    are real mask differences whose top-left pixels sit at image ``origins``
    ``(n, 2)``.  Every plane is linear in the mask, so each delta's planes
    are its full linear convolution with the packed kernels,
    ``(b + s - 1)^2`` pixels that start ``r`` up and left of its origin:
    at ``[:, y, x]`` of the buffer for origin ``(y, x)``, clipped at the
    buffer's far edges.  The deltas run through one batched ``fft2`` at
    ``next_fast_len(b + s - 1)`` and, in chunks that fit the workspace's
    ``"product"`` buffer, a multiply and an ``ifft2``; the results are added
    in the order given, on the calling thread, so the bits do not depend on
    the compute team.
    """
    n, b = deltas.shape[0], deltas.shape[-1]
    span = b + kernels.support - 1
    fft_shape = (next_fast_len(span), next_fast_len(span))
    weighted = kernels.weighted_transfer_functions(fft_shape)    # (planes, F, F)
    planes = weighted.shape[0]
    if n == 0 or planes == 0:
        return
    if workspace is None:
        workspace = AerialWorkspace()
    delta_hat = fft2(deltas, s=fft_shape, axes=(-2, -1))          # (n, F, F)
    height, width = fields.shape[-2:]
    per_delta = planes * fft_shape[0] * fft_shape[1] * 16
    chunk = max(1, _MASK_CHUNK_BUDGET_BYTES // per_delta)
    for c0 in range(0, n, chunk):
        hats = delta_hat[c0 : c0 + chunk]
        product = workspace.buffer(
            "product", (hats.shape[0], planes, *fft_shape), np.complex128
        )
        np.multiply(hats[:, None], weighted[None], out=product)
        stamps = ifft2(product, axes=(-2, -1), overwrite_x=True)
        for stamp, (y, x) in zip(stamps, origins[c0 : c0 + chunk].tolist()):
            y1, x1 = min(height, y + span), min(width, x + span)
            fields[:, y:y1, x:x1] += stamp[:, : y1 - y, : x1 - x]


def aerial_from_fields(fields: np.ndarray, kernels: SOCSKernels, dose: float = 1.0) -> np.ndarray:
    """Normalized aerial intensity ``sum_j |P_j|^2`` of field planes
    ``(..., planes, H, W)``.

    The planes are those :func:`aerial_image` writes (``sqrt(alpha)`` already
    folded in), so this is its normalized intensity at ``dose``, up to the
    order of the plane sum.
    """
    magnitude = fields.real * fields.real
    magnitude += fields.imag * fields.imag
    intensity = magnitude.sum(axis=-3) / clear_field_intensity(kernels)
    intensity *= dose
    return intensity


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
