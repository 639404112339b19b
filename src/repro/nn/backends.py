"""Compute lanes of the fused inference kernels, and BLAS thread capping.

The fused eval kernels (:func:`repro.nn.functional.conv_bn_act` /
:func:`~repro.nn.functional.conv_transpose_bn_act`) run per-sample GEMMs in
the working dtype of the compiled :class:`repro.nn.fusion.FusedChain`.  A
compute lane is nothing more than that dtype:

``float64``
    The default.  Bit-identical to the unfused eval graph (<= 1e-12
    zoo-wide gate).
``float32``
    Folded weights/biases are cast to float32 at conversion time and the
    whole chain runs in float32 — roughly half the memory traffic on a
    memory-bound path.  Equivalence is held to a *calibrated* per-model
    tolerance (see ``tests/nn/test_fusion.py``), not the 1e-12 gate.

Both lanes compute per sample, so pooled and sharded runs stay bit-identical
to serial within a lane.

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

import numpy as np

from .. import knobs

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "BLAS_THREADS_ENV",
    "DEFAULT_BACKEND",
    "get_blas_threads",
    "resolve_backend",
    "resolve_blas_threads",
    "set_blas_threads",
]

BACKEND_ENV = "REPRO_BACKEND"
BLAS_THREADS_ENV = "REPRO_BLAS_THREADS"
DEFAULT_BACKEND = "float64"

#: Lane name -> working dtype of the compiled fused chains.
BACKENDS: dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


def resolve_backend(name: str | None = None) -> np.dtype:
    """The lane dtype: explicit ``name`` > ``REPRO_BACKEND`` > ``float64``."""
    explicit = name is not None
    if not explicit:
        name = knobs.get_raw(BACKEND_ENV) or DEFAULT_BACKEND
    if name not in BACKENDS:
        problem = (
            f"unknown compute backend {name!r}"
            if explicit
            else f"{BACKEND_ENV}={name!r} is not a compute backend"
        )
        raise ValueError(f"{problem}; valid backends: {', '.join(sorted(BACKENDS))}")
    return BACKENDS[name]


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
