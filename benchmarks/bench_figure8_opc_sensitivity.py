"""Benchmark E7 — regenerate Figure 8 (sensitivity to OPC-iteration perturbations)."""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import format_figure8, run_figure8
from repro.layout.design_rules import ISPD2019_RULES
from repro.layout.generators import generate_via_layout
from repro.litho.simulator import LithoSimulator
from repro.opc.engine import OPCConfig, OPCEngine

from conftest import record_report


def test_incremental_opc_resimulation(benchmark):
    """Incremental OPC (field-delta patching) vs full re-simulation.

    Large-tile via layout (2048 nm at 8 nm -> 256 px, 256 blocks of 16 px).
    The incremental run must be bit-identical to the full run while patching
    materially fewer block-equivalents than ``iterations x n_tiles`` (a full
    refresh counts every block), and faster wall-clock.
    """
    iterations = 24
    simulator = LithoSimulator(pixel_size=8.0, num_kernels=10, kernel_support=31)
    simulator.kernels  # warm the SOCS kernel cache outside the timed region

    def correct(incremental: bool):
        layout = generate_via_layout(
            ISPD2019_RULES,
            np.random.default_rng(3),
            tile_size=2048.0,
            density_scale=1.5,
        )
        config = OPCConfig(
            iterations=iterations, freeze_after=2, incremental=incremental
        )
        start = time.perf_counter()
        result = OPCEngine(simulator, config).correct(layout)
        return result, time.perf_counter() - start

    # Warm-up pass, then one measured pass of each mode.
    correct(False), correct(True)
    full, full_seconds = correct(False)
    inc, inc_seconds = correct(True)

    # Bit-identical corrections: same final mask and same EPE trajectory.
    assert np.array_equal(inc.final_mask, full.final_mask)
    assert inc.mask_history == full.mask_history
    assert all(
        np.array_equal(a.values, b.values)
        for a, b in zip(inc.epe_history, full.epe_history)
    )

    # Materially fewer block patches than iterations x n_tiles.
    n_tiles = inc.dirty_history[0]  # first iteration is a full refresh
    assert n_tiles > 1
    spent = inc.counters.tile_equivalents(n_tiles)
    assert spent < 0.75 * iterations * n_tiles
    # Measurably faster wall-clock than the full re-simulation run.
    assert inc_seconds < full_seconds

    report = "\n".join(
        [
            "Incremental OPC re-simulation (via layout, 2048 nm / 8 nm, "
            f"{n_tiles} blocks, {iterations} iterations, freeze_after=2)",
            f"  full re-simulation : {full_seconds * 1e3:8.1f} ms",
            f"  incremental        : {inc_seconds * 1e3:8.1f} ms "
            f"({full_seconds / inc_seconds:.2f}x speedup)",
            f"  block-equivalents  : {spent} vs {iterations * n_tiles} "
            "(iterations x n_tiles)",
            f"  dirty trajectory   : {inc.dirty_history}",
            f"  frozen fragments   : {inc.epe_history[-1].frozen_fragments}",
            f"  final mean |EPE|   : {inc.epe_history[-1].mean_abs_nm:.2f} nm",
        ]
    )
    record_report("Incremental OPC re-simulation", report)

    # Timed kernel: one incremental correction pass.
    benchmark(lambda: correct(True))


def test_figure8_opc_sensitivity(benchmark, harness):
    result = run_figure8(harness)
    dirty_line = f"\ndirty block-equivalents per iteration: {result['dirty_history']}"
    record_report("Figure 8 OPC sensitivity", format_figure8(result) + dirty_line)

    assert len(result["iterations"]) == harness.profile.opc_iterations
    # Both models improve as the mask approaches the trained (OPC'ed)
    # distribution: the last quarter of iterations scores above the first.
    quarter = max(1, len(result["iterations"]) // 4)
    for series in ("doinn_miou", "unet_miou"):
        early = float(np.mean(result[series][:quarter]))
        late = float(np.mean(result[series][-quarter:]))
        assert late >= early - 0.05
    # DOINN keeps its advantage over the CNN-only baseline on average.
    assert result["doinn_mean"] >= result["unet_mean"] - 0.10

    # Timed kernel: one DOINN prediction on an intermediate OPC snapshot.
    model, _ = harness.trained_model("doinn", "iccad2013", "L")
    data = harness.benchmark("iccad2013", "L")
    mask = data.test.masks[:1]
    benchmark(lambda: model.predict(mask, batch_size=1))
