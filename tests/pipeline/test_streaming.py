"""Streaming worker-pool coverage: persistent shm ring + intra-mask sharding.

Three invariants anchor this file:

* the streaming ring is a pure transport — outputs across >= 3
  consecutive pipeline calls are **bit-identical** to serial execution,
  while the mapped segments are created once and reused
  (generation-tagged regrowth only when the geometry outgrows a slot);
* segment lifetime is fully owned — ``close()`` is idempotent and releases
  everything, a forced :class:`WorkerPoolError` leaves nothing stale, and a
  process that exits without closing is cleaned by the registry's atexit
  hook, so ``/dev/shm`` never accumulates ``repro`` segments;
* the stitched plan's intra-mask tile sharding is **bit-identical** to
  single-worker stitching, for every registry model the pipeline serves.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import (
    ExecutionConfig,
    InferencePipeline,
    ModelExecutor,
    RetryPolicy,
    SegmentRing,
    WorkerPoolError,
    WorkerPoolExecutor,
    live_segment_names,
)
from repro.pipeline.executors import Executor
from repro.pipeline.streaming import SEGMENT_PREFIX

#: Pre-supervision failure semantics: no retries, no degradation — a worker
#: failure surfaces immediately as WorkerPoolError (graceful degradation has
#: its own coverage in tests/pipeline/test_supervision.py).
STRICT = RetryPolicy(max_retries=0, degrade=False)


@pytest.fixture(scope="module")
def model(tiny_model_factory):
    return tiny_model_factory("doinn")


def _random_masks(n: int, size: int, seed: int = 13) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.8).astype(float)


def _repro_shm_files() -> list[str]:
    """``repro`` segments currently visible in /dev/shm (Linux only)."""
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith(SEGMENT_PREFIX))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return []


# --------------------------------------------------------------------- #
# Ring reuse across consecutive calls
# --------------------------------------------------------------------- #
def test_ring_reuses_segments_across_calls(model):
    masks = _random_masks(6, 32)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    with WorkerPoolExecutor(model, num_workers=2) as executor:
        outputs = [executor.run_batch(masks[:, None]) for _ in range(3)]
        for out in outputs:
            np.testing.assert_array_equal(out, reference)
        ring = executor._ring
        assert ring is not None and ring.regrow_count == 0
        names = {slot.shm.name for slot in ring.slots().values()}
        assert names and all(name.startswith(SEGMENT_PREFIX) for name in names)
        executor.run_batch(masks[:, None])
        assert {slot.shm.name for slot in ring.slots().values()} == names  # no churn
    assert live_segment_names() == ()  # close() released every slot


def test_streaming_pipeline_bit_identical_across_calls(model):
    """>= 3 consecutive pipeline calls: ring == serial, bit for bit."""
    masks = _random_masks(6, 32, seed=23)
    serial = InferencePipeline(model, ExecutionConfig(batch_size=4, num_workers=0))
    reference = serial.predict(masks)
    with InferencePipeline(model, ExecutionConfig(batch_size=4, num_workers=2)) as ring_pipe:
        for _ in range(3):
            np.testing.assert_array_equal(ring_pipe.predict(masks), reference)


# --------------------------------------------------------------------- #
# Geometry-change regrowth
# --------------------------------------------------------------------- #
def test_ring_regrows_on_geometry_change(model):
    small = _random_masks(4, 32, seed=3)
    big = _random_masks(4, 64, seed=4)
    ref_small = ModelExecutor(model).run_batch(small[:, None])
    ref_big = ModelExecutor(model).run_batch(big[:, None])
    with WorkerPoolExecutor(model, num_workers=2) as executor:
        np.testing.assert_array_equal(executor.run_batch(small[:, None]), ref_small)
        generations = {r: s.generation for r, s in executor._ring.slots().items()}
        assert set(generations.values()) == {0}
        # Larger geometry: every slot regrows once (new segment, generation+1).
        np.testing.assert_array_equal(executor.run_batch(big[:, None]), ref_big)
        regrown = executor._ring.slots()
        assert executor._ring.regrow_count == len(regrown) > 0
        assert all(slot.generation == 1 for slot in regrown.values())
        # Back to the small geometry: capacity suffices, no further regrow.
        np.testing.assert_array_equal(executor.run_batch(small[:, None]), ref_small)
        assert executor._ring.regrow_count == len(regrown)
        assert {r: s.generation for r, s in executor._ring.slots().items()} == {
            role: 1 for role in regrown
        }


def test_slot_capacity_never_shrinks():
    ring = SegmentRing()
    try:
        slot = ring.acquire("in0", 1 << 16)
        assert slot.capacity >= 1 << 16
        assert ring.acquire("in0", 1 << 12) is slot  # smaller request reuses
        grown = ring.acquire("in0", 1 << 20)
        assert grown.generation == slot.generation + 1
        assert grown.capacity >= 1 << 20
        assert ring.regrow_count == 1
    finally:
        ring.close()
    assert live_segment_names() == ()


# --------------------------------------------------------------------- #
# Lifecycle: close() idempotency, reuse after close, atexit teardown
# --------------------------------------------------------------------- #
def test_ring_close_is_idempotent_and_respawns(model):
    masks = _random_masks(4, 32)
    executor = WorkerPoolExecutor(model, num_workers=2)
    reference = executor.run_batch(masks[:, None])
    assert executor._ring is not None and len(executor._ring) > 0
    executor.close()
    assert executor._ring is None
    assert live_segment_names() == ()
    executor.close()  # second close is a no-op, not an error
    # Ring and pool respawn transparently on the next run, same results.
    np.testing.assert_array_equal(executor.run_batch(masks[:, None]), reference)
    assert executor._ring is not None
    executor.close()
    assert live_segment_names() == ()


def test_segment_ring_close_itself_idempotent():
    ring = SegmentRing()
    ring.acquire("out", 4096)
    ring.close()
    ring.close()
    assert len(ring) == 0
    assert live_segment_names() == ()


def test_atexit_releases_unclosed_ring_segments(tmp_path):
    """A process that exits without close() strands nothing in /dev/shm."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.core import create_model
        from repro.pipeline import WorkerPoolExecutor, live_segment_names
        model = create_model("doinn", image_size=32, gp_channels=4, lp_base_channels=2)
        executor = WorkerPoolExecutor(model, num_workers=2)
        executor.run_batch(np.zeros((4, 1, 32, 32)))
        assert live_segment_names()
        print("LIVE:" + ",".join(live_segment_names()))
        # exit WITHOUT close(): the registry's atexit hook must unlink.
        """
    )
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    line = next(l for l in proc.stdout.splitlines() if l.startswith("LIVE:"))
    leaked = [name for name in line[len("LIVE:"):].split(",") if name]
    assert leaked  # the child really had live segments before exiting
    present = _repro_shm_files()
    assert not any(name in present for name in leaked)


def test_atexit_with_unjoined_pools_exits_quietly():
    """Interpreter shutdown with a live pool must not traceback: teardown
    is step-by-step guarded because worker handles may already be reaped
    when ``__del__``/atexit run."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.core import create_model
        from repro.pipeline import WorkerPoolExecutor
        model = create_model("doinn", image_size=32, gp_channels=4, lp_base_channels=2)
        supervised = WorkerPoolExecutor(model, num_workers=2)
        supervised.run_batch(np.zeros((4, 1, 32, 32)))
        print("RAN")
        # exit WITHOUT close(): __del__ + atexit must tear down quietly.
        """
    )
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "RAN" in proc.stdout
    assert "Traceback" not in proc.stderr, proc.stderr


# --------------------------------------------------------------------- #
# No stale segments after worker failures (the PR 2 leak)
# --------------------------------------------------------------------- #
class _FailsInWorkers(Executor):
    """Succeeds in the creating process (the in-process probe), fails in
    worker processes — so the failure surfaces on the pool side, after the
    shared segments were created."""

    name = "fails-in-workers"

    def __init__(self) -> None:
        self._parent_pid = os.getpid()

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        if os.getpid() != self._parent_pid:
            raise ValueError("deliberate worker failure (marker-4242)")
        return batch.copy()


def test_no_stale_segments_after_worker_error():
    before = _repro_shm_files()
    with WorkerPoolExecutor(_FailsInWorkers(), num_workers=2, retry=STRICT) as executor:
        with pytest.raises(WorkerPoolError, match="marker-4242"):
            executor.run_batch(np.zeros((5, 1, 8, 8)))
    # close() leaves the registry and /dev/shm clean.
    assert live_segment_names() == ()
    assert _repro_shm_files() == before


def test_sigkilled_worker_mid_batch_leaves_shm_clean(model):
    """A worker SIGKILLed mid-batch (deterministic ``kill@0:0`` plan): the
    supervised pool respawns it, the retried chunk reproduces the serial
    output bit for bit, and ``close()`` leaves /dev/shm free of ``repro``
    segments."""
    before = _repro_shm_files()
    masks = _random_masks(6, 32, seed=47)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    with WorkerPoolExecutor(model, num_workers=2, fault_plan="kill@0:0") as executor:
        out = executor.run_batch(masks[:, None])
        np.testing.assert_array_equal(out, reference)
        assert executor.robustness.workers_respawned >= 1
        assert executor.robustness.chunks_retried >= 1
    assert live_segment_names() == ()
    assert _repro_shm_files() == before


def test_atexit_cleans_shm_after_sigkilled_worker():
    """Exit without close() *after* a worker was SIGKILLed mid-batch: the
    registry's atexit hook still unlinks everything — a killed worker cannot
    strand its mapped segments (workers never own them)."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.core import create_model
        from repro.pipeline import WorkerPoolExecutor, live_segment_names
        model = create_model("doinn", image_size=32, gp_channels=4, lp_base_channels=2)
        executor = WorkerPoolExecutor(model, num_workers=2, fault_plan="kill@0:0")
        executor.run_batch(np.zeros((6, 1, 32, 32)))
        assert executor.robustness.workers_respawned >= 1
        print("LIVE:" + ",".join(live_segment_names()))
        # exit WITHOUT close(): the registry's atexit hook must unlink.
        """
    )
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    line = next(l for l in proc.stdout.splitlines() if l.startswith("LIVE:"))
    leaked = [name for name in line[len("LIVE:"):].split(",") if name]
    assert leaked  # the ring really was live when the child exited
    present = _repro_shm_files()
    assert not any(name in present for name in leaked)


def test_streaming_pool_recovers_after_worker_failure(model):
    masks = _random_masks(4, 32)
    reference = ModelExecutor(model).run_batch(masks[:, None])
    with WorkerPoolExecutor(_FailsInWorkers(), num_workers=2, retry=STRICT) as failing:
        with pytest.raises(WorkerPoolError):
            failing.run_batch(np.zeros((5, 1, 8, 8)))
        # The ring survives a failed batch and keeps serving the next one.
        with pytest.raises(WorkerPoolError):
            failing.run_batch(np.zeros((5, 1, 8, 8)))
    with WorkerPoolExecutor(model, num_workers=2) as executor:
        np.testing.assert_array_equal(executor.run_batch(masks[:, None]), reference)


# --------------------------------------------------------------------- #
# Intra-mask tile sharding (stitched plan)
# --------------------------------------------------------------------- #
def test_intra_mask_sharding_single_large_mask_bit_identical(model):
    """The tiles of ONE large mask shard across the pool, bit-identically."""
    mask = _random_masks(1, 64, seed=31)[0]
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    serial = InferencePipeline(model, ExecutionConfig(**kwargs))
    reference = serial.run(mask[None, None], stitch=True)
    assert not reference.stats.sharded_tiles
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as sharded:
        result = sharded.run(mask[None, None], stitch=True)
        assert result.stats.sharded_tiles
        assert result.stats.num_tiles == reference.stats.num_tiles
        # The GP stream went to the pool in workers x batch_size
        # super-batches (plus the reconstruction batch) — fewer pool calls
        # than one per batch_size chunk.
        assert result.stats.num_batches < reference.stats.num_batches
        np.testing.assert_array_equal(result.outputs, reference.outputs)


def test_gp_features_shard_across_pool(model):
    mask = _random_masks(1, 64, seed=35)[0]
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
    reference = InferencePipeline(model, ExecutionConfig(**kwargs)).gp_features(mask)
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as sharded:
        np.testing.assert_array_equal(sharded.gp_features(mask), reference)


def test_run_gp_micro_batches_are_partition_invariant(model):
    """run_gp runs the whole batch it is handed in one GP forward; per-tile
    calls give the same bits (unfused engine; the compiled one is pinned in
    test_compiled_pipeline.py)."""
    tiles = _random_masks(7, 32, seed=37)[:, None]
    executor = ModelExecutor(model)
    whole = executor.run_gp(tiles)
    singles = np.concatenate([executor.run_gp(tiles[i : i + 1]) for i in range(7)])
    np.testing.assert_array_equal(whole, singles)


def test_streaming_and_sharding_equivalence_whole_zoo(zoo_model):
    """Every registry model: pooled streaming == serial, on the stitched plan
    when the model supports it and the native plan otherwise."""
    name, model = zoo_model
    executor = ModelExecutor(model)
    if executor.supports_stitching:
        masks = _random_masks(2, 64, seed=41)
        kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8)
        serial = InferencePipeline(model, ExecutionConfig(**kwargs))
        reference = serial.predict(masks, stitch=True)
        with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as pooled:
            np.testing.assert_array_equal(pooled.predict(masks, stitch=True), reference)
    else:
        masks = _random_masks(4, 32, seed=43)
        reference = InferencePipeline(model, ExecutionConfig(batch_size=2)).predict(masks)
        with InferencePipeline(model, ExecutionConfig(batch_size=2, num_workers=2)) as pooled:
            np.testing.assert_array_equal(pooled.predict(masks), reference)


def test_sharding_composes_with_compiled_engines(model):
    masks = _random_masks(2, 64, seed=45)
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    reference = InferencePipeline(model, ExecutionConfig(**kwargs)).predict(masks, stitch=True)
    with InferencePipeline(model, ExecutionConfig(num_workers=2, **kwargs)) as pooled:
        assert pooled.compiled
        np.testing.assert_array_equal(pooled.predict(masks, stitch=True), reference)
