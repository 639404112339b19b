"""Throughput measurement in µm²/s (paper Figure 6).

The paper compares the simulation throughput of UNet, DAMO, DOINN and the
reference (golden) lithography engine in square micrometres of layout
simulated per second.  The same quantity is measured here for the NumPy
implementations, so the *ratios* between the learned models and the golden
engine are comparable even though absolute numbers reflect CPU execution.

All engines are timed through :class:`repro.pipeline.InferencePipeline`, the
same batch-first execution path production inference uses, with a real
``batch_size`` knob: throughput can be reported per single tile (the seed
configuration) or for batched execution, which is how Figure 6's "orders of
magnitude" headline scales in practice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..pipeline import ExecutionConfig, InferencePipeline

__all__ = [
    "ThroughputResult",
    "measure_model_throughput",
    "measure_pipeline_throughput",
    "measure_simulator_throughput",
]


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of one engine."""

    name: str
    um2_per_second: float
    seconds_per_tile: float
    tile_area_um2: float
    runs: int
    batch_size: int = 1

    def speedup_over(self, other: "ThroughputResult") -> float:
        """How many times faster this engine is than ``other``."""
        if other.um2_per_second <= 0:
            return float("inf")
        return self.um2_per_second / other.um2_per_second


def _measure(
    name: str,
    run_once,
    tile_area_um2: float,
    repeats: int,
    warmup: int,
    tiles_per_run: int = 1,
    batch_size: int = 1,
) -> ThroughputResult:
    for _ in range(warmup):
        run_once()
    start = time.perf_counter()
    for _ in range(repeats):
        run_once()
    # Clamp to one timer tick: a smoke run faster than the clock resolution
    # must not divide by zero or report infinite throughput.
    elapsed = max(time.perf_counter() - start, 1e-9)
    per_tile = elapsed / (repeats * tiles_per_run)
    return ThroughputResult(
        name=name,
        um2_per_second=tile_area_um2 / per_tile,
        seconds_per_tile=per_tile,
        tile_area_um2=tile_area_um2,
        runs=repeats,
        batch_size=batch_size,
    )


def _as_batch(mask: np.ndarray) -> np.ndarray:
    """Coerce a mask to the pipeline's ``(N, 1, H, W)`` layout."""
    mask = np.asarray(mask)
    if mask.ndim == 2:
        return mask[None, None]
    if mask.ndim == 3:
        return mask[:, None]
    return mask


def _tile_area_um2(batch: np.ndarray, pixel_size: float) -> float:
    return (batch.shape[-1] * pixel_size / 1000.0) * (batch.shape[-2] * pixel_size / 1000.0)


def measure_pipeline_throughput(
    pipeline: InferencePipeline,
    mask: np.ndarray,
    pixel_size: float,
    name: str | None = None,
    repeats: int = 3,
    warmup: int = 1,
    batch_size: int | None = None,
) -> ThroughputResult:
    """Measure throughput of an inference pipeline on a mask (or mask batch).

    A single 2-D mask is replicated ``batch_size`` times so batched execution
    is timed on the same workload as the per-tile measurement; a 3-D/4-D input
    is timed as-is.
    """
    mask = np.asarray(mask)
    batch = _as_batch(mask)
    batch_size = batch_size or pipeline.batch_size
    if mask.ndim == 2 and batch_size > 1:
        batch = np.repeat(batch, batch_size, axis=0)
    tile_area = _tile_area_um2(batch, pixel_size)

    def run_once():
        pipeline.predict(batch, batch_size=batch_size)

    return _measure(
        name or pipeline.name,
        run_once,
        tile_area,
        repeats,
        warmup,
        tiles_per_run=batch.shape[0],
        batch_size=batch_size,
    )


def _measurement_config(config: ExecutionConfig | None, batch_size: int) -> ExecutionConfig:
    """One-shot pipeline config for a throughput measurement."""
    return (config if config is not None else ExecutionConfig()).merged(batch_size=batch_size)


def measure_model_throughput(
    model,
    mask: np.ndarray,
    pixel_size: float,
    name: str | None = None,
    repeats: int = 3,
    warmup: int = 1,
    batch_size: int = 1,
    config: ExecutionConfig | None = None,
) -> ThroughputResult:
    """Measure inference throughput of a learned model on one mask tile.

    ``batch_size`` controls how many tiles are executed per forward: 1 is the
    seed per-tile configuration; larger values report batched throughput
    (Figure 6's deployment scenario).  Every other execution knob — workers,
    supervision, compilation, backend lane, BLAS threads — arrives as one
    :class:`~repro.pipeline.ExecutionConfig` (``config=``), which is how
    Figure 6 rows are measured per backend.  All of it is ignored when an
    already-built pipeline is passed.  A repeated-measurement loop is
    exactly the workload the pool's shared-memory ring is built for: every
    ``run_once`` after the first reuses the mapped segments.
    """
    if isinstance(model, InferencePipeline):
        return measure_pipeline_throughput(
            model,
            mask,
            pixel_size,
            name=name or type(model).__name__,
            repeats=repeats,
            warmup=warmup,
            batch_size=batch_size,
        )
    # The pipeline is built for this measurement only: release its worker
    # pool and ring segments on the way out instead of stranding them until
    # interpreter exit.
    cfg = _measurement_config(config, batch_size)
    with InferencePipeline(model, config=cfg) as pipeline:
        return measure_pipeline_throughput(
            pipeline,
            mask,
            pixel_size,
            name=name or type(model).__name__,
            repeats=repeats,
            warmup=warmup,
            batch_size=batch_size,
        )


def measure_simulator_throughput(
    simulator,
    mask: np.ndarray,
    name: str = "Ref",
    repeats: int = 3,
    warmup: int = 1,
    batch_size: int = 1,
    config: ExecutionConfig | None = None,
) -> ThroughputResult:
    """Measure throughput of the golden lithography simulator on one mask tile."""
    cfg = _measurement_config(config, batch_size)
    with InferencePipeline(simulator, config=cfg) as pipeline:
        return measure_pipeline_throughput(
            pipeline,
            mask,
            simulator.pixel_size,
            name=name,
            repeats=repeats,
            warmup=warmup,
            batch_size=batch_size,
        )
