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

Compute team and BLAS threads: the fused conv kernel splits its work into
independent units (a sample's output blocks) whose boundaries depend only
on the geometry, and runs those units on this
process's :class:`ComputeTeam` (single-threaded GEMMs parallelised over
independent output blocks, as in Georganas et al., "Anatomy of
High-Performance Deep Learning Convolutions on SIMD Architectures",
arXiv:1808.05567).  The golden simulator's aerial image
(:mod:`repro.litho.hopkins`) runs its (mask group, kernel chunk) units on
the same team.  Which thread runs a unit never changes its bits, so any
team size gives the same outputs.

The team is a team of one, and BLAS is left alone, unless something asks
for more: a serial compiled or simulator pipeline runs each call inside
:func:`compute_threads`, which sizes the team and caps every OpenBLAS at one
thread for that call only and restores both on exit, so unfused pipelines
and any other code keep the library's own thread count; a pool worker of a
compiled or simulator executor sizes its team once for its whole life
(:func:`set_compute_threads`).  :func:`single_threaded_blas` caps BLAS
without touching the team, for LAPACK results whose bits depend on the
thread count (SOCS kernel generation).  The thread budget is the
``blas_threads`` field of :class:`repro.pipeline.ExecutionConfig` /
``REPRO_BLAS_THREADS``: explicit > env > :func:`default_blas_threads`,
where the default is 1 per pooled worker and ``min(usable cores,
DEFAULT_TEAM_LIMIT)`` for a serial compiled or simulator pipeline.  It is
never read back from the BLAS library: once a compute team has capped it,
the library reports 1.  Unfused model pipelines use it as a plain BLAS cap,
and only when it is set.  The cap is applied by a ctypes shim (no
``threadpoolctl`` dependency) and reaches *every* OpenBLAS the process has
mapped: numpy and scipy each bundle their own, and the one numpy's GEMMs
call is not necessarily the first one listed.  The library handles are read
once per process (and again after a new import), not per scope.  ``0``
means "leave the BLAS library alone" (and a team of one).  Knob catalogue:
``docs/configuration.md``.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import os
import sys
import threading
from contextlib import contextmanager

import numpy as np

from .. import knobs

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "BLAS_THREADS_ENV",
    "DEFAULT_BACKEND",
    "DEFAULT_TEAM_LIMIT",
    "ComputeTeam",
    "compute_team",
    "compute_threads",
    "default_blas_threads",
    "get_blas_threads",
    "resolve_backend",
    "set_blas_threads",
    "set_compute_threads",
    "single_threaded_blas",
    "usable_cores",
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


#: ``((pid, loaded module count), libraries, [(setter, getter), ...])`` of
#: the last read of the mapped OpenBLAS libraries; see :func:`_mapped_blas`.
_MAPPED: tuple[tuple[int, int], list, list] | None = None


def _mapped_blas() -> tuple[list[ctypes.CDLL], list[tuple[object, object]]]:
    """Every mapped OpenBLAS and its ``(setter, getter)``, either None where
    the library lacks one.

    numpy and scipy each bundle their own OpenBLAS (numpy's is the 64-bit-int
    ``numpy.libs/libscipy_openblas64_*``, the one every numpy GEMM calls), so
    one process routinely maps two.  Reading ``/proc/self/maps`` and
    resolving the symbols costs about a millisecond, so the result is kept
    per process and read again only once the process has imported another
    module, which is how a new library gets mapped (``import scipy.linalg``
    maps scipy's).
    """
    global _MAPPED
    key = (os.getpid(), len(sys.modules))
    if _MAPPED is None or _MAPPED[0] != key:
        libraries = []
        for path in _openblas_paths():
            try:
                libraries.append(ctypes.CDLL(path))
            except OSError:  # pragma: no cover - unloadable candidate
                continue
        functions = []
        for lib in libraries:
            put = _find_symbol(lib, _SET_SYMBOLS)
            if put is not None:
                put.argtypes = [ctypes.c_int]
                put.restype = None
            get = _find_symbol(lib, _GET_SYMBOLS)
            if get is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
            functions.append((put, get))
        _MAPPED = (key, libraries, functions)
    return _MAPPED[1], _MAPPED[2]


def _blas_library() -> ctypes.CDLL | None:
    """The first mapped OpenBLAS (kept for host fingerprints), or None."""
    libraries, _ = _mapped_blas()
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
    setters = [put for put, _ in _mapped_blas()[1]]
    for put in setters:
        if put is not None:
            put(int(n))
    return bool(setters) and None not in setters


def get_blas_threads() -> int | None:
    """Largest thread count across the mapped OpenBLAS libraries.

    Taking the maximum means a cap that reached only some of the libraries
    reads as uncapped.  None when no library can be queried.
    """
    counts = [count for _, count in _blas_thread_counts()]
    return max(counts) if counts else None


def _blas_thread_counts() -> list[tuple[object, int]]:
    """``(setter, thread count)`` of every mapped OpenBLAS that has a getter;
    the setter is None where the library lacks one."""
    return [(put, int(get())) for put, get in _mapped_blas()[1] if get is not None]


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, not the machine's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


#: Largest default team of a serial pipeline on the team (a compiled model
#: or the golden simulator).  Two is the size the benchmark measured (a
#: 2-vCPU host); members hand the GIL over at every numpy call and each
#: holds its own scratch slice, so neither the speed nor the memory of
#: bigger teams is known.  An explicit ``blas_threads`` or
#: ``REPRO_BLAS_THREADS`` may ask for more.
DEFAULT_TEAM_LIMIT = 2


def default_blas_threads(num_workers: int = 0, team: bool = False) -> int:
    """The thread budget when neither ``blas_threads`` nor the env sets it.

    1 under a worker pool (``num_workers > 1``), so ``workers x threads``
    never oversubscribes; :func:`usable_cores` up to
    :data:`DEFAULT_TEAM_LIMIT` for a serial pipeline whose engine runs on
    the compute ``team`` (a compiled model's fused convs, the simulator's
    aerial image); 0 (meaning "leave the library alone") for any other
    serial pipeline.
    """
    if num_workers > 1:
        return 1
    return min(usable_cores(), DEFAULT_TEAM_LIMIT) if team else 0


# --------------------------------------------------------------------------
# Compute team: the fused kernels' per-process thread pool
# --------------------------------------------------------------------------
class _Member(threading.Thread):
    """One helper thread of a :class:`ComputeTeam`, parked on its ``go`` lock."""

    def __init__(self, team: "ComputeTeam", index: int) -> None:
        super().__init__(name=f"repro-team-{index}", daemon=True)
        self.team = team
        self.index = index
        self.go = threading.Lock()
        self.go.acquire()
        self.done = threading.Lock()
        self.done.acquire()
        self.error: BaseException | None = None

    def run(self) -> None:
        while True:
            self.go.acquire()
            work = self.team._work
            if work is None:
                return
            try:
                work(self.index)
            # repro: ok(EXC001, not swallowed: the caller re-raises it once every member has stopped)
            except BaseException as exc:
                self.error = exc
            self.done.release()


class ComputeTeam:
    """``size`` threads (the caller's included) running independent work units.

    :meth:`run` hands each unit index to whichever member is free; the
    member index selects that member's slice of the caller's scratch.  A
    team of one runs the same loop inline.  The helpers are parked on plain
    locks between calls: waking one and collecting it costs ~20 us, where a
    ``concurrent.futures`` pool took ~100 us per call.  :meth:`resize`
    starts helpers as needed and keeps them parked when the team shrinks.
    """

    #: Units of fewer multiply-adds than this run on the caller's thread
    #: alone.  Such a unit is a dozen numpy calls of ~10 us each, and two
    #: threads running them hand the GIL back and forth at every call: on a
    #: 2-vCPU host a thin conv (4 <- 4 channels, 0.3 M multiply-adds per
    #: block) ran 2x slower on two threads, while refine conv1 (32 <- 4,
    #: 2.4 M per block) ran 1.5x faster.
    MIN_UNIT_MACS = 1 << 21

    def __init__(self, size: int = 1) -> None:
        self.size = 1
        self._work = None
        #: Held while the helpers work for one caller; a concurrent caller
        #: runs its units inline instead of sharing them.
        self._busy = threading.Lock()
        self._members: list[_Member] = []
        #: Open :func:`compute_threads` scopes, and what the first one found.
        self.scopes = 0
        self.saved: tuple[int, list] | None = None
        self.resize(size)

    def resize(self, size: int) -> None:
        """Run later calls on ``max(1, size)`` threads."""
        size = max(1, int(size))
        with self._busy:
            while len(self._members) < size - 1:
                member = _Member(self, len(self._members) + 1)
                member.start()
                self._members.append(member)
            self.size = size

    def run(self, unit, count: int, macs: int, slots: int) -> None:
        """Call ``unit(index, member)`` for every ``index`` in ``range(count)``.

        ``member`` is in ``range(min(self.size, slots))``, ``slots`` being
        the scratch slices the caller holds, and no two concurrent calls
        share one.  ``macs`` is the multiply-adds of one unit; units below
        :data:`MIN_UNIT_MACS` all run on the caller's thread.  The first
        exception raised by any unit propagates once every member has
        stopped.
        """
        threads = min(self.size, slots, count) if macs >= self.MIN_UNIT_MACS else 1
        if threads < 2 or not self._busy.acquire(blocking=False):
            for index in range(count):
                unit(index, 0)
            return
        helpers = self._members[: threads - 1]
        # next() on itertools.count is atomic under the GIL.
        indices = itertools.count()

        def work(member: int) -> None:
            index = next(indices)
            while index < count:
                unit(index, member)
                index = next(indices)

        self._work = work
        try:
            for member in helpers:
                member.go.release()
            try:
                work(0)
            finally:
                for member in helpers:
                    member.done.acquire()
                errors = [member.error for member in helpers if member.error is not None]
                for member in helpers:
                    member.error = None
            if errors:
                raise errors[0]
        finally:
            self._work = None
            self._busy.release()

    def close(self) -> None:
        """Stop the helper threads (they exit once woken with no work)."""
        with self._busy:
            self._work = None
            for member in self._members:
                member.go.release()
            self._members = []
            self.size = 1


#: This process's team as ``(pid, team)``.  Keyed by pid because a forked
#: child inherits the parent's team object but none of its threads: a child
#: that submitted to it would wait forever.  Never pickled.
_TEAM: tuple[int, ComputeTeam] | None = None
#: Guards the open-scope count of :func:`compute_threads`.
_SCOPE_LOCK = threading.Lock()


def compute_team() -> ComputeTeam:
    """This process's compute team, created on first use as a team of one.

    Only :func:`compute_threads` (serial compiled and simulator pipelines)
    and :func:`set_compute_threads` (pool workers) make it bigger.
    """
    global _TEAM
    pid = os.getpid()
    if _TEAM is None or _TEAM[0] != pid:
        _TEAM = (pid, ComputeTeam())
    return _TEAM[1]


def set_compute_threads(n: int) -> None:
    """Size this process's compute team at ``n`` threads from now on.

    ``n >= 1`` also caps every OpenBLAS at one thread: the team, not BLAS,
    spreads the work over the cores, and BLAS helper threads left awake
    compete with the team.  ``n == 0`` is a team of one that leaves the BLAS
    library alone.  Pool workers of a compiled or simulator executor call
    this once from the pool initializer; in-process callers use
    :func:`compute_threads`.
    """
    if n < 0:
        raise ValueError(f"compute thread count must be >= 0, got {n}")
    if n:
        set_blas_threads(1)
    compute_team().resize(n)


@contextmanager
def compute_threads(n: int):
    """Run the block on a compute team of ``n`` threads, BLAS capped at one.

    On exit the team size and every OpenBLAS thread count are restored, so
    the cap never outlives the caller that asked for it.  Overlapping
    scopes (pipelines called from several threads) share one team: the
    first to enter records the state and the last to leave restores it.
    ``n == 0`` is a team of one that leaves BLAS alone.
    """
    if n < 0:
        raise ValueError(f"compute thread count must be >= 0, got {n}")
    with _scope(n, cap=bool(n)) as team:
        yield team


@contextmanager
def single_threaded_blas():
    """Run the block with every OpenBLAS at one thread; the team keeps its size.

    For LAPACK results whose bits depend on the BLAS thread count (the
    eigenvectors of :func:`repro.litho.kernels.generate_kernels`).  It nests
    inside :func:`compute_threads` like any other scope: the thread counts
    found by the first open scope come back when the last one closes.
    """
    with _scope(None, cap=True):
        yield


@contextmanager
def _scope(size: int | None, cap: bool):
    """One open thread scope: resize the team (``None`` keeps its size) and,
    with ``cap``, hold every OpenBLAS at one thread."""
    team = compute_team()
    with _SCOPE_LOCK:
        if not team.scopes:
            team.saved = (team.size, None)
        team.scopes += 1
        saved_size, counts = team.saved
        if cap:
            if counts is None:
                # One read of the libraries serves the cap and the restore.
                counts = _blas_thread_counts()
                team.saved = (saved_size, counts)
            for put, _ in counts:
                if put is not None:
                    put(1)
        if size is not None:
            team.resize(size)
    try:
        yield team
    finally:
        with _SCOPE_LOCK:
            team.scopes -= 1
            if not team.scopes:
                saved_size, counts = team.saved
                team.saved = None
                team.resize(saved_size)
                for put, count in counts or ():
                    if put is not None:
                        put(count)
