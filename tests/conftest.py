"""Shared pytest fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import create_model
from repro.nn import backends

#: Tiny-but-representative configuration for every model in
#: ``repro.core.registry`` — small enough that a full forward runs in
#: milliseconds, large enough that every fusible chain (VGG blocks, strided
#: LP convs, refine tail, output heads) is exercised.  Fusion, pipeline and
#: parallel tests parametrize over these instead of hand-building models.
TINY_MODEL_KWARGS: dict[str, dict] = {
    "doinn": dict(image_size=32, gp_channels=4, lp_base_channels=2),
    "unet": dict(image_size=32, base_channels=4, depth=2),
    "damo-dls": dict(image_size=32, base_channels=4),
    "fno": dict(image_size=32, width=4, modes=3, num_layers=2),
}

#: Input size every tiny model accepts (DOINN needs a multiple of the GP pool
#: factor that also fits the retained frequency block).
TINY_MODEL_SIZE = 32


def build_tiny_model(name: str, **overrides):
    """Build one registry model at its tiny test configuration."""
    kwargs = dict(TINY_MODEL_KWARGS[name])
    kwargs.update(overrides)
    return create_model(name, **kwargs)


@pytest.fixture(params=sorted(TINY_MODEL_KWARGS))
def zoo_model(request):
    """``(name, model)`` for every model in the registry, tiny configs."""
    return request.param, build_tiny_model(request.param)


@pytest.fixture(scope="session")
def tiny_model_factory():
    """Session-wide access to :func:`build_tiny_model` for module fixtures."""
    return build_tiny_model


@pytest.fixture
def compute_threads():
    """``size(n)`` runs the rest of one test on a compute team of ``n``
    threads with BLAS capped at one; the team size and BLAS thread counts
    the session had are restored afterwards."""
    with contextlib.ExitStack() as scopes:
        yield lambda n: scopes.enter_context(backends.compute_threads(n))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministically seeded random generator for each test."""
    return np.random.default_rng(1234)


def numeric_gradient(func, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of ``array``.

    ``func`` must take no arguments and read ``array`` by reference; the array
    is perturbed in place and restored.
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func()
        flat[i] = original - eps
        minus = func()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad
