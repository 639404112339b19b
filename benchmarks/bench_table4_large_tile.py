"""Benchmark E4 — regenerate Table 4 and Figure 9 (large-tile simulation)."""

from __future__ import annotations

import numpy as np

from repro.core import LargeTileSimulator
from repro.experiments import format_table4, run_table4

from conftest import record_report


def test_table4_large_tile(benchmark, harness, execution_config):
    result = run_table4(harness, config=execution_config)
    record_report("Table 4 large tile", format_table4(result))

    # Both pipelines must track the golden contours on tiles larger than the
    # training size.  The paper's headline (naive DOINN degrades, DOINN-LT
    # recovers 92 -> 98 mIOU) needs tiles many times the training area; at the
    # quick profile's 2x scale the naive pipeline has not collapsed yet, so we
    # assert sanity and closeness here and record the comparison in
    # artifacts/results/table_4_large_tile.txt rather than a strict ordering.
    assert result["doinn"]["miou"] > 60.0
    assert result["doinn_lt"]["miou"] > 60.0
    assert abs(result["doinn_lt"]["miou"] - result["doinn"]["miou"]) < 15.0
    assert result["figure9_path"] is not None

    # Timed kernel: the stitched large-tile prediction itself.
    model, _ = harness.trained_model("doinn", "ispd2019", "L")
    config = harness.benchmark_config("ispd2019", "L")
    simulator = harness.simulator(config.pixel_size)
    runner = LargeTileSimulator(
        model,
        train_tile_size=config.image_size,
        optical_diameter_pixels=simulator.optical_diameter_pixels,
    )
    with np.load(result["figure9_path"]) as archive:
        mask = archive["mask"]
    benchmark(lambda: runner.predict(mask))
