"""Experiment E7 — regenerate Figure 8 (sensitivity to subtle mask perturbations).

A metal-layer layout is pushed through the OPC engine for 24 iterations; the
mask snapshot of every iteration is simulated with the golden engine and
predicted with the trained DOINN and UNet.  The per-iteration mIOU series
reproduces Figure 8: both models are weak on the earliest (pre-OPC) masks,
which are far from the training distribution, and DOINN stays ahead of the
CNN-only baseline as the mask converges.
"""

from __future__ import annotations

import numpy as np

from ..layout.generators import generate_metal_layout
from ..layout.design_rules import rules_for
from ..metrics.segmentation import mean_iou
from ..opc.engine import OPCConfig, OPCEngine
from ..utils.tables import format_table
from .harness import Harness

__all__ = ["run_figure8", "format_figure8"]


def run_figure8(
    harness: Harness | None = None,
    benchmark: str = "iccad2013",
    seed: int = 11,
) -> dict:
    """mIOU of DOINN and UNet across OPC iterations of one metal tile."""
    harness = harness or Harness()
    config = harness.benchmark_config(benchmark, "L")
    simulator = harness.simulator(config.pixel_size)

    rules = rules_for(benchmark)
    layout = generate_metal_layout(
        rules,
        np.random.default_rng(seed),
        tile_size=config.tile_size_nm,
        density_scale=harness.DENSITY_SCALE,
    )
    engine = OPCEngine(
        simulator,
        OPCConfig(
            iterations=harness.profile.opc_iterations,
            record_history=True,
        ),
    )
    opc_run = engine.correct(layout)
    snapshots = opc_run.mask_history[: harness.profile.opc_iterations]

    doinn, _ = harness.trained_model("doinn", benchmark, "L")
    unet, _ = harness.trained_model("unet", benchmark, "L")

    iterations, doinn_miou, unet_miou = [], [], []
    for index, mask in enumerate(snapshots):
        golden = engine.pipeline.predict(mask)
        batch = mask[None, None]
        doinn_pred = doinn.predict(batch)[0, 0]
        unet_pred = unet.predict(batch)[0, 0]
        iterations.append(index + 1)
        doinn_miou.append(mean_iou(doinn_pred, golden))
        unet_miou.append(mean_iou(unet_pred, golden))

    counters = opc_run.counters
    return {
        "iterations": iterations,
        "doinn_miou": doinn_miou,
        "unet_miou": unet_miou,
        "doinn_final": doinn_miou[-1],
        "unet_final": unet_miou[-1],
        "doinn_mean": float(np.mean(doinn_miou)),
        "unet_mean": float(np.mean(unet_miou)),
        "dirty_history": list(opc_run.dirty_history),
        "sim_counters": None if counters is None else {
            "full_refreshes": counters.full_refreshes,
            "patched_calls": counters.patched_calls,
            "clean_calls": counters.clean_calls,
            "tiles_simulated": counters.tiles_simulated,
            "tiles_skipped": counters.tiles_skipped,
        },
    }


def format_figure8(result: dict) -> str:
    rows = [
        [it, f"{d:.3f}", f"{u:.3f}"]
        for it, d, u in zip(result["iterations"], result["doinn_miou"], result["unet_miou"])
    ]
    table = format_table(
        ["OPC iteration", "DOINN mIOU", "UNet mIOU"],
        rows,
        title="Figure 8: Lithography modeling performance across OPC iterations",
    )
    summary = (
        f"\nmean mIOU: DOINN {result['doinn_mean']:.3f} vs UNet {result['unet_mean']:.3f}"
    )
    return table + summary
