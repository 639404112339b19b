"""Persistent shared-memory segment ring, the worker pool's one transport.

:class:`~repro.pipeline.parallel.WorkerPoolExecutor` moves every batch
through POSIX shared memory.  The workloads the paper's full-chip runtime
claim describes are *streams* of pipeline calls over same-shaped tile
batches (OPC iteration loops call the simulator dozens of times per mask;
full-chip runs push thousands of identical tile batches), so the segments
persist across calls instead of paying an ``shm_open`` + ``mmap`` +
page-fault-on-first-touch per buffer, in the parent and in every worker,
on each call.

* :func:`create_segment` / :func:`release_segment` — shared-memory segments
  with a recognizable ``repro_<pid>_<token>`` name, tracked in a module-level
  registry whose :mod:`atexit` hook guarantees teardown even when an owner
  forgets to ``close()``.  Every segment the pipeline creates goes through
  this registry, so a crashed run can never strand segments in ``/dev/shm``
  past interpreter exit.
* :class:`SegmentRing` — a set of named buffer slots (``in0``, ``in1``,
  ``out``) that persist across executor invocations.  Each slot carries a
  **generation tag** that increments when the slot is regrown (capacity only
  ever grows), so worker processes can cache their own mapping per slot and
  remap only when the parent actually replaced the segment.  ``close()`` is
  idempotent and releases every slot.

Every chunk reads and writes its own slice of the slots, so pooled execution
is bit-identical to the serial path.
"""

from __future__ import annotations

import atexit
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

__all__ = [
    "SEGMENT_PREFIX",
    "RingSlot",
    "SegmentRing",
    "create_segment",
    "live_segment_names",
    "release_segment",
]

#: Prefix of every shared-memory segment the pipeline creates.  Keeping it
#: recognizable lets CI assert that ``/dev/shm`` holds no leftover ``repro``
#: segments after a test run (scripts/ci.sh).
SEGMENT_PREFIX = "repro"


# ---------------------------------------------------------------------- #
# Segment registry: every segment is torn down at close() or, at the
# latest, interpreter exit.
# ---------------------------------------------------------------------- #
_LIVE_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a registered shared-memory segment of at least ``nbytes``.

    The segment is recorded in the live-segment registry immediately, so the
    atexit hook unlinks it even if the caller errors between creation and its
    own cleanup.
    """
    size = max(int(nbytes), 1)
    while True:
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - 32-bit token collision
            continue
        _LIVE_SEGMENTS[shm.name] = shm
        return shm


def release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close + unlink one segment and drop it from the registry (idempotent)."""
    _LIVE_SEGMENTS.pop(shm.name, None)
    try:
        shm.close()
    except BufferError:  # pragma: no cover - error path: views still alive
        pass  # the mapping is freed with the failing frame
    try:
        shm.unlink()
    except FileNotFoundError:
        pass  # already released


def live_segment_names() -> tuple[str, ...]:
    """Names of every segment this process currently owns (tests, CI checks)."""
    return tuple(sorted(_LIVE_SEGMENTS))


def _release_all_segments() -> None:
    """atexit hook: unlink everything the process still owns."""
    for shm in list(_LIVE_SEGMENTS.values()):
        release_segment(shm)


atexit.register(_release_all_segments)


# ---------------------------------------------------------------------- #
# The persistent ring
# ---------------------------------------------------------------------- #
@dataclass
class RingSlot:
    """One persistent buffer slot: a mapped segment plus its generation tag."""

    role: str
    shm: shared_memory.SharedMemory
    capacity: int
    generation: int


class SegmentRing:
    """Generation-tagged shared-memory slots reused across pipeline calls.

    ``acquire(role, nbytes)`` returns the slot for ``role``, creating it on
    first use and **regrowing** it (new segment, generation + 1) only when the
    requested size exceeds the slot's capacity.  Capacity never shrinks, so a
    stream that alternates tile geometries settles into zero-regrow steady
    state once the largest geometry has been seen.  ``close()`` releases every
    slot and is idempotent; a closed ring can be reused (slots respawn on the
    next ``acquire``).
    """

    def __init__(self) -> None:
        self._slots: dict[str, RingSlot] = {}
        #: Number of times an existing slot was replaced by a larger segment —
        #: observability for the regrowth tests and the throughput bench.
        self.regrow_count = 0

    def __len__(self) -> int:
        return len(self._slots)

    def slots(self) -> dict[str, RingSlot]:
        """Snapshot of the current slots (read-only view for tests/stats)."""
        return dict(self._slots)

    def acquire(self, role: str, nbytes: int) -> RingSlot:
        """The persistent slot for ``role``, regrown if ``nbytes`` outgrew it."""
        slot = self._slots.get(role)
        if slot is not None and slot.capacity >= nbytes:
            return slot
        generation = 0
        if slot is not None:
            generation = slot.generation + 1
            self.regrow_count += 1
            release_segment(slot.shm)
        shm = create_segment(nbytes)
        # The kernel may round the mapping up to a page; expose the real
        # capacity so sub-page growth does not force a regrow.
        slot = RingSlot(role=role, shm=shm, capacity=shm.size, generation=generation)
        self._slots[role] = slot
        return slot

    def close(self) -> None:
        """Release every slot (idempotent; the ring is reusable afterwards)."""
        for slot in self._slots.values():
            release_segment(slot.shm)
        self._slots.clear()
