"""The benchmark workloads: inputs, program-side set-up, call and checks.

Each workload splits its work into four parts, and only two of them are
timed:

* ``inputs(index)`` makes the inputs of one call from the seed (benchmark
  side: layouts, masks and golden labels; never timed);
* ``build()`` constructs the program-side objects and makes one warm call
  (timed as ``setup_s``);
* ``call(handle, inputs)`` is one closed-loop call (timed);
* ``check(...)`` scores one call's output against its golden reference
  outside the timed region, and ``verify(...)`` runs the cross-path checks on
  the calls kept by ``keep(index)`` after the loop.

Every input of every call is distinct: sub-seeds are derived from the run's
seed and the call index, so a result cache cannot turn repeats into a gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: The checked-in DOINN trained on the 64 px / 16 nm ISPD-2019 tiles.
WEIGHTS = ROOT / "artifacts" / "model-doinn-ispd2019-L-cb80f2b94a6b320d.npz"
#: Native tile of the model: 64 px at 16 nm/px = 1.05 um^2.
TILE_PX = 64
MODEL_PIXEL_NM = 16.0
#: Index of the warm-up call's inputs (never used by a timed call).
WARM_INDEX = 99_999


@dataclass
class Quality:
    """Outcome of one call's correctness check."""

    ok: bool
    miou_pct: float
    epe_nm: float
    #: Per-call work counts the traced report uses (tiles, OPC counters).
    counts: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: Layout or mask area one call completes, in um^2.
    area_um2 = 0.0
    #: 64x64 (1.05 um^2) mask tiles one call completes (per-tile nn metrics).
    tiles_per_call = 0
    #: Worker processes of the program-side pipeline (0 = serial).
    num_workers = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def subseed(self, index: int) -> int:
        return self.seed * 100_003 + index

    def keep(self, index: int) -> bool:
        """Whether call ``index`` is kept for the post-loop ``verify``."""
        return False

    def verify(self, kept: list) -> set[int]:
        """Indices of kept calls whose cross-path check failed."""
        return set()

    def model_graph(self, handle):
        """The compiled DOINN graph of the serial pipeline, or None."""
        return None

    def pool_counters(self, handle) -> dict:
        """Supervision counters of the worker pool (zeros when serial)."""
        return {"chunks_retried": 0, "workers_respawned": 0, "degraded_runs": 0}


# ---------------------------------------------------------------------------
# DOINN large-tile inference (large_tile, large_tile_pool)
# ---------------------------------------------------------------------------
class LargeTile(Workload):
    """Table 4: two distinct 256 px (16.8 um^2) masks per call, stitched, serial."""

    name = "large_tile"
    masks_per_call = 2
    scale = 4              # mask side in native tiles
    batch_size = 8
    min_miou = 0.80        # a call below this mean IoU fails its check

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.litho.simulator import LithoSimulator

        # Benchmark-side golden simulator: the labelling configuration the
        # checked-in model was trained against.
        self.labeller = LithoSimulator(
            pixel_size=MODEL_PIXEL_NM, num_kernels=10, kernel_support=31
        )
        self.labeller.kernels
        side_um = TILE_PX * self.scale * MODEL_PIXEL_NM / 1000.0
        self.area_um2 = self.masks_per_call * side_um**2
        self.tiles_per_call = self.masks_per_call * self.scale**2
        self.warm = self.inputs(WARM_INDEX)

    def inputs(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        from repro.data.benchmarks import BenchmarkConfig, build_large_tile_benchmark

        # The dataset recipe of the checked-in ISPD-2019 (L) artifacts.
        config = BenchmarkConfig(
            benchmark="ispd2019",
            image_size=TILE_PX,
            pixel_size=MODEL_PIXEL_NM,
            density_scale=1.2,
            retarget_bias=12.0,
            seed=self.subseed(index),
        )
        data = build_large_tile_benchmark(
            config, self.labeller, num_tiles=self.masks_per_call, scale=self.scale
        )
        return data.masks, data.resists

    def pipeline(self, *, compile: bool = True, num_workers: int | None = None):
        from repro.core.registry import create_model
        from repro.litho.simulator import LithoSimulator
        from repro.nn.serialization import load_state
        from repro.pipeline import ExecutionConfig, InferencePipeline

        model = create_model("doinn", image_size=TILE_PX)
        model.load_state_dict(load_state(WEIGHTS))
        config = ExecutionConfig(
            compile=compile,
            num_workers=self.num_workers if num_workers is None else num_workers,
            batch_size=self.batch_size,
            tile_size=TILE_PX,
            optical_diameter_pixels=LithoSimulator(
                pixel_size=MODEL_PIXEL_NM
            ).optical_diameter_pixels,
        )
        return InferencePipeline(model, config=config)

    def build(self):
        handle = self.pipeline()
        handle.predict(self.warm[0])
        return handle

    def call(self, handle, inputs):
        return handle.predict(inputs[0])

    def check(self, handle, inputs, output) -> Quality:
        from repro.metrics.contour import contour_distance_stats
        from repro.metrics.segmentation import mean_iou

        masks, labels = inputs
        miou = mean_iou(output, labels)
        edge = np.mean(
            [contour_distance_stats(o[0], g[0])["mean"] for o, g in zip(output, labels)]
        )
        return Quality(
            ok=bool(output.shape == labels.shape and miou >= self.min_miou),
            miou_pct=100.0 * miou,
            epe_nm=float(edge) * MODEL_PIXEL_NM,
            counts={"tiles": handle.plan(masks).num_tiles},
        )

    def keep(self, index: int) -> bool:
        return index == 0

    def verify(self, kept: list) -> set[int]:
        """The sampled compiled call must match the unfused pipeline within 1e-12."""
        failed = set()
        with self.pipeline(compile=False) as reference:
            for index, inputs, output in kept:
                expected = reference.predict(inputs[0])
                if not np.max(np.abs(expected - output)) <= 1e-12:
                    failed.add(index)
        return failed

    def close(self, handle) -> None:
        handle.close()

    def model_graph(self, handle):
        return getattr(handle.executor, "model", None)

    def pool_counters(self, handle) -> dict:
        counters = getattr(handle.executor, "robustness", None)
        if counters is None:
            return super().pool_counters(handle)
        return {
            "chunks_retried": counters.chunks_retried,
            "workers_respawned": counters.workers_respawned,
            "degraded_runs": counters.degraded_runs,
        }


class LargeTilePool(LargeTile):
    """``large_tile`` at ``num_workers=2``: the worker pool, supervision and ring."""

    name = "large_tile_pool"
    num_workers = 2

    def keep(self, index: int) -> bool:
        return index % 5 == 0 and index < 40

    def verify(self, kept: list) -> set[int]:
        """Pooled outputs must be bit-identical to the serial ``large_tile`` plan."""
        failed = set()
        with self.pipeline(num_workers=0) as serial:
            for index, inputs, output in kept:
                if not np.array_equal(serial.predict(inputs[0]), output):
                    failed.add(index)
        return failed

    def model_graph(self, handle):
        return None  # the graph runs in the pool workers, untraced


# ---------------------------------------------------------------------------
# Incremental OPC (opc_loop)
# ---------------------------------------------------------------------------
class OPCLoop(Workload):
    """Figure 8: one full 24-iteration correction of a distinct 2048 nm via layout."""

    name = "opc_loop"
    layout_nm = 2048.0
    pixel_nm = 8.0
    iterations = 24
    freeze_after = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.area_um2 = (self.layout_nm / 1000.0) ** 2
        # Benchmark-side golden simulator for the final re-simulation check.
        self.golden = self._simulator()
        self.golden.kernels
        self.warm = self.inputs(WARM_INDEX)

    def _simulator(self):
        from repro.litho.simulator import LithoSimulator

        return LithoSimulator(pixel_size=self.pixel_nm, num_kernels=10, kernel_support=31)

    def _config(self, incremental: bool = True):
        from repro.opc.engine import OPCConfig

        return OPCConfig(
            iterations=self.iterations,
            freeze_after=self.freeze_after,
            incremental=incremental,
        )

    def inputs(self, index: int):
        from repro.layout.design_rules import ISPD2019_RULES
        from repro.layout.generators import generate_via_layout

        return generate_via_layout(
            ISPD2019_RULES,
            np.random.default_rng(self.subseed(index)),
            tile_size=self.layout_nm,
            density_scale=1.5,
        )

    def build(self):
        from repro.opc.engine import OPCEngine

        simulator = self._simulator()
        simulator.kernels
        engine = OPCEngine(simulator, self._config())
        engine.correct(self.warm)
        return engine

    def call(self, handle, inputs):
        return handle.correct(inputs)

    def check(self, handle, inputs, output) -> Quality:
        """Full golden re-simulation of the final mask, EPE over *all* fragments.

        ``epe_history[-1]`` skips frozen fragments (and reads 0 once they
        have all frozen), so the check re-fragments the drawn layout and
        measures every control point against the re-simulated resist.
        """
        from repro.metrics.segmentation import mean_iou
        from repro.opc.epe import measure_layout_epe
        from repro.opc.fragments import fragment_layout

        config = handle.config
        resist = self.golden.resist_image(output.final_mask)
        shapes = fragment_layout(inputs, self.pixel_nm, config.max_fragment_length)
        stats = measure_layout_epe(resist, shapes, self.pixel_nm, config.epe_search_range)
        miou = mean_iou(resist, output.target)
        n_windows = output.dirty_history[0]  # the first iteration refreshes every window
        spent = output.counters.tile_equivalents(n_windows)
        return Quality(
            ok=bool(np.isfinite(stats.mean_abs_nm) and len(output.epe_history) == self.iterations),
            miou_pct=100.0 * miou,
            epe_nm=stats.mean_abs_nm,
            counts={
                "tiles": spent,
                "tile_equivalents": spent,
                "ideal_tile_equivalents": self.iterations * n_windows,
                "windows_simulated": output.counters.tiles_simulated,
                "frozen_fragments": output.epe_history[-1].frozen_fragments,
            },
        )

    def keep(self, index: int) -> bool:
        return index % 8 == 0 and index < 24

    def verify(self, kept: list) -> set[int]:
        """The incremental loop must match the always-full loop bit for bit."""
        from repro.opc.engine import OPCEngine

        failed = set()
        with OPCEngine(self.golden, self._config(incremental=False)) as full:
            for index, layout, output in kept:
                expected = full.correct(layout)
                same = np.array_equal(expected.final_mask, output.final_mask) and all(
                    np.array_equal(a.values, b.values)
                    for a, b in zip(expected.epe_history, output.epe_history)
                )
                if not same:
                    failed.add(index)
        return failed

    def close(self, handle) -> None:
        handle.close()


WORKLOADS = {w.name: w for w in (LargeTile, LargeTilePool, OPCLoop)}
