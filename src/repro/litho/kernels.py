"""SOCS lithography kernels from the Hopkins transmission cross coefficients.

The Hopkins model expresses the aerial image through the transmission cross
coefficient (TCC) operator.  The standard "sum of coherent systems" (SOCS)
approximation — eq. (1)-(2) of the paper — diagonalizes the TCC and keeps the
``l`` largest eigenvalues ``alpha_k`` with eigenfunctions ``h_k``; the image is
then a weighted sum of coherent images.

This module builds the TCC numerically on a frequency grid from the optical
settings (source + pupil), eigendecomposes it and returns spatial-domain
kernels sampled at the mask pixel size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from ..nn.backends import single_threaded_blas
from .optics import OpticalSettings, pupil_function, source_points

__all__ = ["SOCSKernels", "compute_tcc_matrix", "generate_kernels"]

# A dropped imaginary remainder moves the normalised intensity by less than
# this, i.e. by less than one rounding of a value near 1.
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SOCSKernels:
    """A stack of SOCS kernels and their eigenvalues.

    Attributes
    ----------
    kernels:
        Complex array of shape ``(l, K, K)``: spatial-domain kernels sampled at
        ``pixel_size``.
    eigenvalues:
        The associated ``alpha_k`` weights, descending, length ``l``.
    pixel_size:
        Sampling pitch of the kernels in nm.
    settings:
        The optical settings the kernels were derived from.

    The stack also memoizes derived quantities that are expensive to rebuild on
    every simulation call: the frequency-domain *transfer functions* of the
    kernels, packed two real kernels per complex plane, at a given padded FFT
    shape (used by the batched aerial-image path in
    :mod:`repro.litho.hopkins`) and the clear-field intensity used for dose
    normalization.  The cache is keyed by FFT shape, so simulating many masks
    of the same size — the common case in the inference pipeline — pays the
    kernel FFTs exactly once.
    """

    kernels: np.ndarray
    eigenvalues: np.ndarray
    pixel_size: float
    settings: OpticalSettings
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def count(self) -> int:
        return int(self.kernels.shape[0])

    @property
    def support(self) -> int:
        """Kernel support size in pixels."""
        return int(self.kernels.shape[-1])

    def truncated(self, count: int) -> "SOCSKernels":
        """Keep only the ``count`` kernels with the largest eigenvalues."""
        count = min(count, self.count)
        return SOCSKernels(
            kernels=self.kernels[:count],
            eigenvalues=self.eigenvalues[:count],
            pixel_size=self.pixel_size,
            settings=self.settings,
        )

    # -- memoized derived quantities ----------------------------------- #
    def weighted_transfer_functions(self, fft_shape: tuple[int, int]) -> np.ndarray:
        """Packed frequency-domain kernels, zero-padded to ``fft_shape``.

        These are the SOCS transfer functions reused across every mask in a
        batch by :func:`repro.litho.hopkins.aerial_image`: the mask is FFT'd
        once and multiplied against this stack instead of running one
        ``fftconvolve`` per kernel.

        Each kernel with a positive eigenvalue is rotated by the phase of its
        largest tap, ``h_k = e^(i phi_k) (a_k + i b_k)``, which leaves
        ``|h_k (x) M|^2 = (a_k (x) M)^2 + (b_k (x) M)^2`` for a real mask
        ``M``.  ``sqrt(alpha_k) a_k`` is always a real kernel;
        ``sqrt(alpha_k) b_k`` is one too unless its worst-case share of the
        normalised intensity over masks in [0, 1],
        ``(sqrt(alpha_k) ||b_k||_1)^2 / clear_field``, is below float64 eps.
        At defocus 0 the kernels are real up to that phase and every ``b_k``
        is dropped; a defocused pupil keeps them.  The real kernels ``r`` are
        paired in order into planes ``fft2(r_2j + i r_2j+1)`` (an odd count
        leaves the last plane with one kernel alone).  Both convolutions of a
        pair with a real mask are real, so one inverse transform of a plane's
        product yields them as the real and imaginary parts of one field, and
        the SOCS sum is a plain ``sum_j |field_j|^2`` over ``ceil(l'/2)``
        planes at defocus 0 (``l'`` kernels with a positive eigenvalue), with
        the eigenvalues already folded in.  Masks must therefore be real;
        :func:`~repro.litho.hopkins.aerial_image` casts them to float64.
        """
        key = ("wtf", int(fft_shape[0]), int(fft_shape[1]))
        if key not in self._cache:
            clear_field = self.clear_field_intensity()
            reals = []
            for alpha, kernel in zip(self.eigenvalues, self.kernels):
                if alpha <= 0.0:
                    continue
                peak = kernel.flat[np.argmax(np.abs(kernel))]
                kernel = kernel * (np.conj(peak) / np.abs(peak))
                weight = np.sqrt(alpha)
                reals.append(weight * kernel.real)
                remainder = weight * kernel.imag
                if np.abs(remainder).sum() ** 2 >= _EPS * clear_field:
                    reals.append(remainder)
            packed = np.zeros((-(-len(reals) // 2), self.support, self.support), np.complex128)
            if reals:
                packed.real[:] = reals[0::2]
                packed.imag[: len(reals) // 2] = reals[1::2]
            self._cache[key] = scipy.fft.fft2(packed, s=tuple(fft_shape), axes=(-2, -1))
        return self._cache[key]

    def clear_field_intensity(self) -> float:
        """Aerial intensity of a fully transparent mask (memoized).

        Used to normalize aerial images so resist thresholds can be expressed
        as a fraction of the open-frame dose.
        """
        if "clear" not in self._cache:
            responses = self.kernels.sum(axis=(1, 2))
            self._cache["clear"] = float(np.sum(self.eigenvalues * np.abs(responses) ** 2))
        return self._cache["clear"]


def _frequency_grid(settings: OpticalSettings, grid_size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Frequency sample coordinates covering the pupil passband."""
    f_max = settings.cutoff_frequency
    axis = np.linspace(-f_max, f_max, grid_size)
    fx, fy = np.meshgrid(axis, axis, indexing="ij")
    spacing = axis[1] - axis[0]
    return fx, fy, spacing


def compute_tcc_matrix(
    settings: OpticalSettings,
    grid_size: int = 21,
    source_samples: int = 17,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the TCC as a Hermitian matrix over the discretized pupil grid.

    Returns
    -------
    tcc:
        Hermitian matrix of shape ``(G, G)`` with ``G = grid_size ** 2``.
    fx, fy:
        The frequency coordinates of the grid (each of shape
        ``(grid_size, grid_size)``), needed to map eigenvectors back to
        spatial-domain kernels.
    """
    fx, fy, _ = _frequency_grid(settings, grid_size)
    points, weights = source_points(settings, source_samples)

    flat_fx = fx.reshape(-1)
    flat_fy = fy.reshape(-1)
    # Rows: source points; columns: pupil grid frequencies shifted by the source.
    shifted_fx = points[:, 0:1] + flat_fx[None, :]
    shifted_fy = points[:, 1:2] + flat_fy[None, :]
    pupil = pupil_function(shifted_fx, shifted_fy, settings)      # (S, G)
    weighted = pupil * weights[:, None]
    tcc = weighted.conj().T @ pupil                                # (G, G)
    # Enforce exact Hermitian symmetry against numerical noise.
    tcc = 0.5 * (tcc + tcc.conj().T)
    return tcc, fx, fy


# LAPACK's eigenvectors depend on the BLAS thread count: at 1 and at 2
# OpenBLAS threads the degenerate pairs of the annular source's TCC come back
# rotated differently, moving the kernels by up to 0.17, and the synthesis
# GEMM rounds differently too.  On one thread the kernels are the same
# wherever they are first generated (inside a pipeline's thread scope, in a
# pool worker or in plain code).
@single_threaded_blas()
def generate_kernels(
    settings: OpticalSettings | None = None,
    num_kernels: int = 12,
    pixel_size: float = 8.0,
    kernel_support: int = 35,
    grid_size: int = 21,
    source_samples: int = 17,
) -> SOCSKernels:
    """Generate SOCS kernels for the given optical settings.

    Parameters
    ----------
    settings:
        Optical configuration (defaults to the 193i annular setup).
    num_kernels:
        Number of eigenvalues/kernels to keep (``l`` in paper eq. (2)).
    pixel_size:
        Mask pixel size in nm at which the kernels are sampled.
    kernel_support:
        Spatial support of each kernel in pixels (odd; the kernel is centred).
    grid_size:
        Number of frequency samples per axis used to discretize the TCC.
    source_samples:
        Number of samples per axis used to discretize the source.
    """
    settings = settings or OpticalSettings()
    if kernel_support % 2 == 0:
        raise ValueError("kernel_support must be odd so the kernel has a centre pixel")

    tcc, fx, fy = compute_tcc_matrix(settings, grid_size, source_samples)
    eigenvalues, eigenvectors = np.linalg.eigh(tcc)
    # eigh returns ascending order; flip to descending.
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]

    num_kernels = min(num_kernels, eigenvalues.size)
    eigenvalues = np.clip(eigenvalues[:num_kernels], 0.0, None)
    eigenvectors = eigenvectors[:, :num_kernels]

    # Spatial sampling points of the kernel support, centred at zero.
    half = kernel_support // 2
    coords = (np.arange(kernel_support) - half) * pixel_size      # nm
    xx, yy = np.meshgrid(coords, coords, indexing="ij")

    flat_fx = fx.reshape(-1)
    flat_fy = fy.reshape(-1)
    # Inverse Fourier synthesis of each eigenvector onto the spatial grid:
    # h_k(x, y) = sum_f phi_k(f) exp(+i 2 pi (fx x + fy y)).
    phase = np.exp(
        2j * np.pi * (xx.reshape(-1, 1) * flat_fx[None, :] + yy.reshape(-1, 1) * flat_fy[None, :])
    )                                                              # (K*K, G)
    kernels = (phase @ eigenvectors).T.reshape(num_kernels, kernel_support, kernel_support)

    # Normalize so that the dominant kernel has unit L2 norm; fold the grid
    # measure into the eigenvalues instead of the kernels.
    norm = np.linalg.norm(kernels[0])
    if norm > 0:
        kernels = kernels / norm
        eigenvalues = eigenvalues * norm**2
    # Scale eigenvalues so that a fully open mask gives intensity ~1.0.
    return SOCSKernels(
        kernels=kernels,
        eigenvalues=eigenvalues,
        pixel_size=pixel_size,
        settings=settings,
    )
