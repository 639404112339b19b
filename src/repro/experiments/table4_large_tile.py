"""Experiment E4 — regenerate Table 4 and Figure 9 (large-tile simulation).

A DOINN trained on small tiles is applied to tiles ``scale`` times larger,
once by feeding the whole tile through the network ("DOINN" row) and once
with the half-overlapping large-tile scheme of §3.2 ("DOINN-LT" row).  The
paper claims the whole-tile pass degrades and the large-tile scheme
restores quality.  This reproduction records the opposite: the checked-in
``artifacts/results/table_4_large_tile.txt`` has DOINN-LT at 95.16 / 92.85
mPA / mIOU (%), below naive DOINN's 97.87 / 96.32.  The predictions are also
saved to an ``.npz`` archive so the Figure 9 visual comparison can be
inspected.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..data.benchmarks import build_large_tile_benchmark
from ..evaluation.evaluator import evaluate_predictions
from ..pipeline import ExecutionConfig
from ..utils.tables import format_table
from .harness import Harness, artifacts_dir

__all__ = ["run_table4", "format_table4"]


def run_table4(
    harness: Harness | None = None,
    benchmark: str = "ispd2019",
    save_figure9: bool = True,
    config: ExecutionConfig | None = None,
) -> dict:
    """Evaluate naive DOINN vs. the large-tile scheme on scaled-up tiles.

    ``config`` carries the execution knobs into the shared pipeline:
    ``num_workers`` shards the tile batches of both rows across a worker
    pool (whose shared-memory ring serves both rows), and the "DOINN-LT"
    row shards the tiles of each large mask across all workers.  ``retry``
    sets the pool's supervision policy (chunk deadline / retries /
    degradation) — long large-tile sweeps survive dying workers instead of
    losing the whole run.
    The predictions are bit-identical to the serial path in every mode.
    """
    pipeline_config = config if config is not None else ExecutionConfig()
    harness = harness or Harness()
    profile = harness.profile

    model, _ = harness.trained_model("doinn", benchmark, "L")
    bench_config = harness.benchmark_config(benchmark, "L")
    simulator = harness.simulator(bench_config.pixel_size)
    large = build_large_tile_benchmark(
        bench_config,
        simulator,
        num_tiles=profile.large_tile_count,
        scale=profile.large_tile_scale,
    )

    # One batch-first pipeline serves both rows: the naive whole-tile forward
    # ("DOINN") and the §3.2 tiling + core-stitching plan ("DOINN-LT"), with
    # tile forwards batched across the whole large-tile set.
    pipeline = harness.model_pipeline(
        model,
        config=pipeline_config.merged(
            tile_size=bench_config.image_size,
            optical_diameter_pixels=simulator.optical_diameter_pixels,
        ),
    )
    naive_predictions = pipeline.predict_naive(large.masks)
    lt_predictions = pipeline.predict(large.masks, stitch=True)
    pipeline.close()

    naive_score = evaluate_predictions(naive_predictions, large.resists)
    lt_score = evaluate_predictions(lt_predictions, large.resists)

    figure9_path: Path | None = None
    if save_figure9:
        figure9_path = artifacts_dir() / "figure9_large_tile.npz"
        np.savez_compressed(
            figure9_path,
            mask=large.masks[0, 0],
            golden=large.resists[0, 0],
            doinn=naive_predictions[0, 0],
            doinn_lt=lt_predictions[0, 0],
        )

    naive_mpa, naive_miou = naive_score.as_row()
    lt_mpa, lt_miou = lt_score.as_row()
    return {
        "benchmark": f"{benchmark}-LT",
        "tile_um2": large.tile_area_um2,
        "num_tiles": len(large),
        "doinn": {"mpa": naive_mpa, "miou": naive_miou},
        "doinn_lt": {"mpa": lt_mpa, "miou": lt_miou},
        "figure9_path": str(figure9_path) if figure9_path else None,
    }


def format_table4(result: dict) -> str:
    return format_table(
        ["ISPD-2019-LT", "mPA (%)", "mIOU (%)"],
        [
            ["DOINN", f"{result['doinn']['mpa']:.2f}", f"{result['doinn']['miou']:.2f}"],
            ["DOINN-LT", f"{result['doinn_lt']['mpa']:.2f}", f"{result['doinn_lt']['miou']:.2f}"],
        ],
        title=f"Table 4: Large Tile Simulation Scheme ({result['num_tiles']} tiles of "
        f"{result['tile_um2']:.1f} um^2)",
    )
