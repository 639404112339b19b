"""Golden lithography simulator facade.

:class:`LithoSimulator` plays the role of the commercial engines used in the
paper (Calibre / the ICCAD-2013 ``Lithosim``): it converts mask images into
aerial and resist images with the Hopkins/SOCS optical model and a resist
model, and it is what generates the ground-truth labels for training as well
as the "Ref" runtime baseline in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..layout.geometry import Layout
from ..layout.rasterize import rasterize
from .hopkins import aerial_image
from .kernels import SOCSKernels, generate_kernels
from .optics import OpticalSettings
from .resist import ConstantThresholdResist, ResistModel

__all__ = ["LithoSimulator", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Full output of one lithography simulation."""

    mask: np.ndarray
    aerial: np.ndarray
    resist: np.ndarray
    pixel_size: float

    @property
    def printed_area(self) -> float:
        """Printed (resist = 1) area in nm^2."""
        return float(self.resist.sum()) * self.pixel_size**2


@dataclass
class LithoSimulator:
    """Forward lithography simulation: mask image -> aerial image -> resist image.

    Parameters
    ----------
    settings:
        Optical configuration; defaults to the 193i annular setup.
    resist:
        Resist model; defaults to the constant-threshold model the paper uses.
    pixel_size:
        Pixel pitch in nm of the mask images this simulator accepts.
    num_kernels:
        Number of SOCS kernels retained (``l`` in paper eq. (2)).
    kernel_support:
        Spatial support of the kernels in pixels.
    """

    settings: OpticalSettings = field(default_factory=OpticalSettings)
    resist: ResistModel = field(default_factory=ConstantThresholdResist)
    pixel_size: float = 8.0
    num_kernels: int = 12
    kernel_support: int = 35
    dose: float = 1.0
    _kernels: SOCSKernels | None = field(default=None, repr=False)

    @property
    def kernels(self) -> SOCSKernels:
        """Lazily computed SOCS kernel stack (cached)."""
        if self._kernels is None:
            self._kernels = generate_kernels(
                self.settings,
                num_kernels=self.num_kernels,
                pixel_size=self.pixel_size,
                kernel_support=self.kernel_support,
            )
        return self._kernels

    @property
    def optical_diameter_pixels(self) -> int:
        """Optical diameter expressed in pixels at this simulator's resolution."""
        return int(np.ceil(self.settings.optical_diameter / self.pixel_size))

    # ------------------------------------------------------------------ #
    # Simulation entry points
    # ------------------------------------------------------------------ #
    def simulate(self, mask: np.ndarray) -> SimulationResult:
        """Simulate a mask image and return mask, aerial and resist images."""
        aerial = aerial_image(mask, self.kernels, normalize=True, dose=self.dose)
        resist = self.resist.develop(aerial)
        return SimulationResult(
            mask=np.asarray(mask, dtype=np.float64),
            aerial=aerial,
            resist=resist,
            pixel_size=self.pixel_size,
        )

    def simulate_layout(self, layout: Layout) -> SimulationResult:
        """Rasterize a layout at this simulator's pixel size and simulate it."""
        mask = rasterize(layout, pixel_size=self.pixel_size)
        return self.simulate(mask)

    def resist_image(self, mask: np.ndarray) -> np.ndarray:
        """Shortcut returning only the resist image (training label)."""
        return self.simulate(mask).resist

    def aerial(self, mask: np.ndarray, workspace=None, fields=None) -> np.ndarray:
        """Normalized aerial image of one mask ``(H, W)`` or a batch ``(N, H, W)``.

        Batches run in one FFT pass per mask against the cached SOCS transfer
        functions (the inference-pipeline hot path; see
        :mod:`repro.litho.hopkins`).  Long-lived callers can pass an
        :class:`~repro.litho.hopkins.AerialWorkspace` to reuse the FFT scratch
        buffers across calls, and a ``fields`` buffer to receive the SOCS
        field planes (:func:`~repro.litho.hopkins.aerial_image`).
        """
        return aerial_image(
            mask,
            self.kernels,
            normalize=True,
            dose=self.dose,
            workspace=workspace,
            fields=fields,
        )

    def with_dose(self, dose: float) -> "LithoSimulator":
        """Return a copy of this simulator at a different exposure dose."""
        clone = LithoSimulator(
            settings=self.settings,
            resist=self.resist,
            pixel_size=self.pixel_size,
            num_kernels=self.num_kernels,
            kernel_support=self.kernel_support,
            dose=dose,
        )
        clone._kernels = self._kernels
        return clone

    def with_defocus(self, defocus: float) -> "LithoSimulator":
        """Return a copy of this simulator at a different defocus setting."""
        settings = OpticalSettings(
            wavelength=self.settings.wavelength,
            numerical_aperture=self.settings.numerical_aperture,
            sigma_in=self.settings.sigma_in,
            sigma_out=self.settings.sigma_out,
            defocus=defocus,
            refractive_index=self.settings.refractive_index,
        )
        return LithoSimulator(
            settings=settings,
            resist=self.resist,
            pixel_size=self.pixel_size,
            num_kernels=self.num_kernels,
            kernel_support=self.kernel_support,
            dose=self.dose,
        )
