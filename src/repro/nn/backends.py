"""Pluggable compute backends for the fused inference kernels.

The fused eval kernels (:func:`repro.nn.functional.conv_bn_act` /
:func:`~repro.nn.functional.conv_transpose_bn_act`) run single-threaded
float64 GEMMs by default — the bit-identical reference lane.  This module
adds a small registry of alternative *compute backends* that slot into the
op-polymorphic :class:`repro.nn.fusion.FusedChain` seam:

``float64``
    The default.  Today's per-sample float64 GEMM path, bit-identical to
    the unfused eval graph (<= 1e-12 zoo-wide gate).
``float32``
    Folded weights/biases are cast to float32 at conversion time and the
    whole chain runs in float32 — roughly half the memory traffic on a
    memory-bound path.  Equivalence is held to a *calibrated* per-model
    tolerance (see ``tests/nn/test_fusion.py``), not the 1e-12 gate.
``blas``
    Threaded BLAS batching: each micro-batch's per-sample patch matrices
    are stacked into one ``(N*L, C_in*k*k) @ (C_in*k*k, C_out)`` GEMM so
    BLAS threads can tile the machine.  Same float64 dtype, but the
    different GEMM shapes round differently, so this lane is
    tolerance-equivalent (not bit-identical) and *not* partition
    invariant.
``fft``
    FFT-domain transposed convolution for the large-kernel deconv /
    spectral layers (kernel area >= :data:`FFT_MIN_KERNEL_AREA`), reusing
    the ``AerialWorkspace`` scratch idiom from ``litho/hopkins.py``.
    Per-sample, so it stays partition invariant; float64 dtype with an
    FFT-roundoff tolerance.

Selection precedence (the repo-wide knob idiom): explicit ``backend=``
argument > ``REPRO_BACKEND`` env var > ``float64`` default.  The env var
only engages on the compiled fused path (``compile=True`` pipelines /
executors); ``compile_model`` itself never consults the environment, so
the fusion equivalence suites stay deterministic under any env.

BLAS thread capping: ``REPRO_BLAS_THREADS`` / the ``blas_threads`` knob on
:class:`repro.pipeline.parallel.ParallelConfig` caps the BLAS thread pools
via a ctypes shim (no ``threadpoolctl`` dependency), so ``workers x BLAS
threads`` does not oversubscribe the machine.  The cap reaches *every*
OpenBLAS the process has mapped: numpy and scipy each bundle their own, and
the one numpy's GEMMs call is not necessarily the first one listed.
Defaults: 1 thread per pooled worker, leave-the-library-alone when serial.
Knob catalogue: ``docs/configuration.md``.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass, field

import numpy as np

from .. import knobs

try:  # pragma: no cover - exercised indirectly; scipy ships in the image
    from scipy import fft as _sp_fft
except ImportError:  # pragma: no cover - fallback for scipy-less installs
    _sp_fft = None

__all__ = [
    "BACKEND_ENV",
    "BLAS_THREADS_ENV",
    "DEFAULT_BACKEND",
    "FFT_MIN_KERNEL_AREA",
    "BackendWorkspace",
    "ComputeBackend",
    "available_backends",
    "fft_conv_transpose_bn_act",
    "get_backend",
    "get_blas_threads",
    "register_backend",
    "resolve_backend",
    "resolve_blas_threads",
    "set_blas_threads",
]

BACKEND_ENV = "REPRO_BACKEND"
BLAS_THREADS_ENV = "REPRO_BLAS_THREADS"
DEFAULT_BACKEND = "float64"

#: Minimum kernel area (kh*kw) for the FFT deconv path to engage.  The
#: DOINN 4x4 deconv stacks qualify; UNet's 2x2 up-convs stay on the direct
#: scatter path where im2col-free strided assignment is already cheap.
FFT_MIN_KERNEL_AREA = 16


@dataclass(frozen=True)
class ComputeBackend:
    """One compute lane for the fused kernels.

    ``dtype_str`` is the working dtype of the whole fused chain;
    ``stacked_gemm`` routes conv GEMMs through the batched ``(N*L, K)``
    stacking (threaded-BLAS lane); ``fft_deconv`` routes large-kernel
    transposed convs through the FFT-domain path.
    """

    name: str
    dtype_str: str
    stacked_gemm: bool = False
    fft_deconv: bool = False
    description: str = ""

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.dtype_str)


_REGISTRY: dict[str, ComputeBackend] = {}


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Register (or replace) a backend under its ``name``."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str | ComputeBackend) -> ComputeBackend:
    """Look up a backend by name (``ComputeBackend`` passes through)."""
    if isinstance(name, ComputeBackend):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown compute backend {name!r}; valid backends: {valid}"
        ) from None


def resolve_backend(backend: str | ComputeBackend | None = None) -> ComputeBackend:
    """Resolve the active backend: explicit arg > ``REPRO_BACKEND`` > default."""
    if backend is not None:
        return get_backend(backend)
    raw = knobs.get_raw(BACKEND_ENV)
    if raw is None or raw == "":
        return _REGISTRY[DEFAULT_BACKEND]
    if raw not in _REGISTRY:
        valid = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"{BACKEND_ENV}={raw!r} is not a registered compute backend; "
            f"valid backends: {valid}"
        )
    return _REGISTRY[raw]


register_backend(
    ComputeBackend(
        name="float64",
        dtype_str="<f8",
        description="per-sample float64 GEMMs; bit-identical reference lane",
    )
)
register_backend(
    ComputeBackend(
        name="float32",
        dtype_str="<f4",
        description="float32 inference lane; calibrated tolerance, ~half the memory traffic",
    )
)
register_backend(
    ComputeBackend(
        name="blas",
        dtype_str="<f8",
        stacked_gemm=True,
        description="stacked (N*L, K) GEMM per micro-batch so BLAS threads batch across samples",
    )
)
register_backend(
    ComputeBackend(
        name="fft",
        dtype_str="<f8",
        fft_deconv=True,
        description="FFT-domain transposed conv for large-kernel deconv/spectral layers",
    )
)


# --------------------------------------------------------------------------
# BLAS thread capping (ctypes shim; no threadpoolctl dependency)
# --------------------------------------------------------------------------

#: Candidate exported symbol names across OpenBLAS builds.  NumPy's bundled
#: scipy-openblas prefixes the public API; plain builds export the bare
#: names; ``openblas_set_num_threads_local`` is the thread-local variant
#: some builds expose instead of the global setter.
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads_64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "openblas_set_num_threads_local",
)
_GET_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads_64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_paths() -> list[str]:
    """Candidate OpenBLAS shared-object paths: mapped libs, then numpy.libs."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                path = line.rstrip("\n").partition("/")[2]
                if not path:
                    continue
                path = "/" + path
                base = os.path.basename(path).lower()
                if "openblas" in base and path not in paths:
                    paths.append(path)
    except OSError:  # pragma: no cover - /proc-less platforms
        pass
    if not paths:
        libs_dir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
            paths.append(os.path.abspath(path))
    return paths


def _blas_libraries() -> list[ctypes.CDLL]:
    """Handles to every OpenBLAS the process has mapped, read at call time.

    numpy and scipy each bundle their own OpenBLAS (numpy's is the 64-bit-int
    ``numpy.libs/libscipy_openblas64_*``, the one every numpy GEMM calls), so
    one process routinely maps two.  Nothing is cached: a library mapped
    after an earlier call is picked up by the next one.
    """
    libraries = []
    for path in _openblas_paths():
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:  # pragma: no cover - unloadable candidate
            continue
    return libraries


def _blas_library() -> ctypes.CDLL | None:
    """The first mapped OpenBLAS (kept for host fingerprints), or None."""
    libraries = _blas_libraries()
    return libraries[0] if libraries else None


def _find_symbol(lib: ctypes.CDLL, candidates: tuple[str, ...]):
    for name in candidates:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def set_blas_threads(n: int) -> bool:
    """Cap every mapped OpenBLAS thread pool at ``n`` threads.

    Each library gets its own setter, looked up under the 64-bit-int
    ``scipy_openblas_*64_`` and the plain export names.  Returns True only
    when every mapped library accepted the cap; False when none was found or
    any of them lacks a setter — callers degrade gracefully.  This runtime
    call is the reliable path for pool workers: with the fork start method
    the BLAS libraries are already initialized when the worker starts, so
    environment variables like ``OPENBLAS_NUM_THREADS`` are too late.
    """
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    setters = [_find_symbol(lib, _SET_SYMBOLS) for lib in _blas_libraries()]
    for fn in setters:
        if fn is not None:
            fn.argtypes = [ctypes.c_int]
            fn.restype = None
            fn(int(n))
    return bool(setters) and None not in setters


def get_blas_threads() -> int | None:
    """Largest thread count across the mapped OpenBLAS libraries.

    Taking the maximum means a cap that reached only some of the libraries
    reads as uncapped.  None when no library can be queried.
    """
    counts = []
    for lib in _blas_libraries():
        fn = _find_symbol(lib, _GET_SYMBOLS)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        counts.append(int(fn()))
    return max(counts) if counts else None


def resolve_blas_threads(blas_threads: int | None = None, num_workers: int = 0) -> int:
    """Resolve the BLAS thread cap: explicit > ``REPRO_BLAS_THREADS`` > default.

    The default is 1 when running under a worker pool (``num_workers > 1``)
    so ``workers x BLAS threads`` never oversubscribes, and 0 (meaning
    "leave the library alone") when serial.  Returns the resolved cap; 0
    disables capping.
    """
    if blas_threads is not None:
        if blas_threads < 0:
            raise ValueError(f"blas_threads must be >= 0, got {blas_threads}")
        return int(blas_threads)
    value = knobs.read_int(BLAS_THREADS_ENV, minimum=0)
    if value is not None:
        return value
    return 1 if num_workers > 1 else 0


# --------------------------------------------------------------------------
# Backend workspace (AerialWorkspace idiom from litho/hopkins.py)
# --------------------------------------------------------------------------


class BackendWorkspace:
    """Reusable scratch + kernel-spectrum cache for backend kernels.

    Mirrors ``litho.hopkins.AerialWorkspace``: buffers are keyed by
    ``(key, shape, dtype)`` and allocated uninitialized; the workspace
    pickles empty so chains ship cheaply to pool workers, which rebuild
    their scratch on first use.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._spectra: dict[tuple, tuple] = {}

    def buffer(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        cache_key = (key, shape, np.dtype(dtype).str)
        buf = self._buffers.get(cache_key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[cache_key] = buf
        return buf

    def spectrum(self, key: tuple, weight: np.ndarray, builder) -> np.ndarray:
        """Cache ``builder(weight)`` keyed by ``key`` + the weight's identity.

        ``id(weight)`` can be reused after garbage collection, so the cached
        entry keeps a strong reference to the weight it was built from and
        is recomputed whenever the stored weight is not the argument.
        """
        cache_key = key + (id(weight),)
        entry = self._spectra.get(cache_key)
        if entry is not None and entry[0] is weight:
            return entry[1]
        value = builder(weight)
        self._spectra[cache_key] = (weight, value)
        return value

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self._buffers = {}
        self._spectra = {}


# --------------------------------------------------------------------------
# FFT-domain transposed convolution
# --------------------------------------------------------------------------


def _rfft2(a: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    if _sp_fft is not None:
        return _sp_fft.rfft2(a, s=s)
    return np.fft.rfft2(a, s=s)


def _irfft2(a: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    if _sp_fft is not None:
        return _sp_fft.irfft2(a, s=s)
    return np.fft.irfft2(a, s=s)


def _fast_len(n: int) -> int:
    if _sp_fft is not None:
        return _sp_fft.next_fast_len(n)
    return n


def fft_conv_transpose_bn_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
    activation: str = "identity",
    negative_slope: float = 0.01,
    output_padding: int = 0,
    out: np.ndarray | None = None,
    workspace: BackendWorkspace | None = None,
) -> np.ndarray:
    """FFT-domain equivalent of ``conv_transpose_bn_act``.

    A transposed convolution is the full (non-flipped) linear convolution
    of the zero-upsampled input with the kernel, cropped by ``padding`` on
    each side.  Per-sample rfft2 with the channel contraction done by one
    einsum over the input-channel axis — partition invariant, so pooled
    and sharded runs stay bit-identical to serial within this lane.
    """
    from .functional import _apply_activation_inplace, _check_fused_activation

    _check_fused_activation(activation, negative_slope)
    x = np.asarray(x)
    weight = np.asarray(weight)
    n, c_in, h, w = x.shape
    wc_in, c_out, kh, kw = weight.shape
    if wc_in != c_in:
        raise ValueError(
            f"fft_conv_transpose_bn_act: weight expects {wc_in} input channels, got {c_in}"
        )
    dtype = np.result_type(x, weight)
    h_up = (h - 1) * stride + 1
    w_up = (w - 1) * stride + 1
    h_out = (h - 1) * stride - 2 * padding + kh
    w_out = (w - 1) * stride - 2 * padding + kw
    full_h = h_up + kh - 1
    full_w = w_up + kw - 1
    out_shape = (n, c_out, h_out + 2 * output_padding, w_out + 2 * output_padding)
    if out is None:
        out = np.zeros(out_shape, dtype=dtype)
    else:
        if out.shape != out_shape:
            raise ValueError(
                f"fft_conv_transpose_bn_act: out buffer has shape {out.shape}, "
                f"expected {out_shape}"
            )
        out.fill(0.0)

    if workspace is None:
        workspace = BackendWorkspace()
    fh = _fast_len(full_h)
    fw = _fast_len(full_w)
    up = workspace.buffer("fft_up", (n, c_in, h_up, w_up), dtype)
    up.fill(0.0)
    up[:, :, ::stride, ::stride] = x
    w_spec = workspace.spectrum(
        ("fft_w", weight.shape, (fh, fw)),
        weight,
        lambda wt: _rfft2(wt.astype(dtype, copy=False), (fh, fw)),
    )
    x_spec = _rfft2(up, (fh, fw))
    full = _irfft2(np.einsum("nihw,iohw->nohw", x_spec, w_spec), (fh, fw))
    region = full[:, :, padding : padding + h_out, padding : padding + w_out]
    part = out[
        :,
        :,
        output_padding : output_padding + h_out,
        output_padding : output_padding + w_out,
    ]
    part[...] = region
    if bias is not None:
        part += np.asarray(bias).reshape(1, c_out, 1, 1)
    _apply_activation_inplace(part, activation, negative_slope)
    return out
