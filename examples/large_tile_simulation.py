"""Large-tile simulation with a DOINN trained on small tiles (paper §3.2).

Trains a DOINN on 1 um^2 tiles, then simulates tiles four times that area in
two ways: by feeding the whole tile through the network (quality degrades,
Table 4 row "DOINN") and with the half-overlapping large-tile scheme
(quality restored, row "DOINN-LT").  Both paths route through the batch-first
:class:`repro.pipeline.InferencePipeline`, which plans the tiling, batches the
tile forwards across the whole large-tile set, and stitches the cores back.

Run with:  python examples/large_tile_simulation.py [--num-workers N] [--compile]
           [--worker-timeout S] [--worker-retries N] [--no-degrade]

``--num-workers`` shards the pipeline's tile batches across a worker pool
(see :mod:`repro.pipeline.parallel`); predictions are bit-identical to the
serial path, so the tables below do not change — only the wall time does.
A pooled run streams through a persistent shared-memory ring and shards the
tiles of each large mask across all workers.
``--compile`` runs the trained model as a fused inference graph
(:mod:`repro.nn.fusion`: conv->BN->LeakyReLU folded into single passes with a
pad-once buffer cache) — numerically equivalent within 1e-12, and typically
well over 1.3x faster per tile on one core.
``--worker-timeout`` / ``--worker-retries`` / ``--no-degrade`` tune the pool's
supervision policy (:mod:`repro.pipeline.supervision`): per-chunk deadline,
retry budget, and whether an exhausted chunk is recomputed in-process (with a
warning) or raises a structured error.  See docs/configuration.md for the
matching ``REPRO_*`` environment variables.
"""

from __future__ import annotations

import argparse

from repro.core import DOINN, DOINNConfig
from repro.data import BenchmarkConfig, build_benchmark, build_large_tile_benchmark
from repro.evaluation import evaluate_predictions
from repro.litho import LithoSimulator
from repro.pipeline import ExecutionConfig, InferencePipeline, RetryPolicy
from repro.training import Trainer, TrainingConfig
from repro.utils import format_table, seed_everything


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help="worker processes for the inference pipeline (default: REPRO_NUM_WORKERS or 0)",
    )
    parser.add_argument(
        "--compile",
        action="store_true",
        help="compile the model into a fused inference graph (conv+BN+act fusion)",
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        help="per-chunk deadline in seconds for pooled runs (default: REPRO_WORKER_TIMEOUT)",
    )
    parser.add_argument(
        "--worker-retries",
        type=int,
        default=None,
        help="retry budget per failed chunk (default: REPRO_WORKER_RETRIES or 2)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="raise a structured WorkerPoolError instead of recomputing exhausted chunks in-process",
    )
    args = parser.parse_args()
    retry = None
    if args.worker_timeout is not None or args.worker_retries is not None or args.no_degrade:
        retry = RetryPolicy(
            timeout=args.worker_timeout,
            max_retries=args.worker_retries,
            degrade=False if args.no_degrade else None,
        )
    seed_everything(1)
    simulator = LithoSimulator(pixel_size=16.0)
    config = BenchmarkConfig(
        benchmark="ispd2019", num_train=32, num_test=4,
        image_size=64, pixel_size=16.0, density_scale=1.5,
    )

    print("Training DOINN on small (1 um^2) tiles ...")
    data = build_benchmark(config, simulator)
    model = DOINN(DOINNConfig.scaled(config.image_size))
    Trainer(model, TrainingConfig.fast(max_epochs=6, batch_size=4)).fit(data.train)

    print("Building dense large tiles (4x the training area) ...")
    large = build_large_tile_benchmark(config, simulator, num_tiles=3, scale=2)

    # All CLI flags fold into one execution document; unset flags stay None
    # so the REPRO_* environment knobs (then the defaults) still apply.
    execution = ExecutionConfig(
        tile_size=config.image_size,
        batch_size=8,
        optical_diameter_pixels=simulator.optical_diameter_pixels,
        num_workers=args.num_workers,
        compile=args.compile,
        retry=retry,
    )
    pipeline = InferencePipeline(model, config=execution)
    if args.compile:
        executor = getattr(pipeline.executor, "inner", pipeline.executor)
        print(f"Compiled inference: {pipeline.name} ({executor.model.num_fused_ops} fused ops)")
    if pipeline.num_workers > 1:
        print(f"Worker pool: {pipeline.num_workers} workers, persistent shm ring")
    naive = pipeline.predict_naive(large.masks)
    result = pipeline.run(large.masks, stitch=True)
    pipeline.close()
    print(
        f"  stitched plan: {result.stats.num_tiles} GP tiles in "
        f"{result.stats.num_batches} batches"
        f"{' (intra-mask sharded)' if result.stats.sharded_tiles else ''}, "
        f"{result.stats.seconds:.2f} s"
    )

    naive_score = evaluate_predictions(naive, large.resists)
    lt_score = evaluate_predictions(result.outputs, large.resists)
    print(
        format_table(
            ["Pipeline", "mPA (%)", "mIOU (%)"],
            [
                ["DOINN (naive, whole tile)", *map(lambda v: f"{v:.2f}", naive_score.as_row())],
                ["DOINN-LT (large-tile scheme)", *map(lambda v: f"{v:.2f}", lt_score.as_row())],
            ],
            title=f"Large tile simulation on {len(large)} tiles of {large.tile_area_um2:.1f} um^2",
        )
    )


if __name__ == "__main__":
    main()
