"""Weight initialization schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "spectral_scale", "default_rng"]

_DEFAULT_SEED = 0


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a NumPy random generator (seeded for reproducibility by default)."""
    return np.random.default_rng(_DEFAULT_SEED if seed is None else seed)


def kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialization (suitable for ReLU-family activations)."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def spectral_scale(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Initialization for complex spectral weights stored as ``(..., 2)`` pairs.

    Follows the FNO reference implementation: uniform in ``[0, 1/fan_in)`` for
    both real and imaginary parts.
    """
    scale = 1.0 / max(fan_in, 1)
    return rng.uniform(0.0, scale, size=shape)
