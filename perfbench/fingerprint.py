"""Host fingerprint: cores, CPU, library versions, knobs, source and BLAS.

The BLAS reading asks each OpenBLAS mapped into the process for its own
configuration and thread count, rather than trusting the first library
found.  numpy links its own ``numpy.libs/libscipy_openblas64_*`` while scipy
ships a second ``scipy.libs/libscipy_openblas*``; the one numpy's matmul
calls is the one under ``numpy.libs``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _symbol(lib, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def openblas_libraries() -> list[dict]:
    """Every OpenBLAS mapped into this process: owner, path, config, threads."""
    paths: list[str] = []
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            path = line.rstrip("\n").partition("/")[2]
            if path and "openblas" in os.path.basename(path).lower():
                path = "/" + path
                if path not in paths:
                    paths.append(path)
    libraries = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, _THREAD_GETTERS, ctypes.c_int)
        config = _symbol(lib, _CONFIG_GETTERS, ctypes.c_char_p)
        owner = Path(path).parent.name  # numpy.libs / scipy.libs
        libraries.append(
            {
                "owner": owner.removesuffix(".libs"),
                "file": os.path.basename(path),
                "config": config().decode() if config is not None else None,
                "threads": threads() if threads is not None else None,
            }
        )
    return libraries


def numpy_blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy itself calls (its ``numpy.libs`` copy)."""
    for lib in openblas_libraries():
        if lib["owner"] == "numpy":
            return lib["threads"]
    return None


def capped_library() -> str | None:
    """File name of the OpenBLAS that ``repro.nn.backends.set_blas_threads`` caps."""
    from repro.nn import backends

    lib = backends._blas_library()
    return os.path.basename(lib._name) if lib is not None else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "openblas": openblas_libraries(),
        "numpy_blas_threads": numpy_blas_threads(),
        "set_blas_threads_caps": capped_library(),
    }
