"""Shared infrastructure for the experiment harnesses.

Every paper table/figure is regenerated by a module in this package.  They all
need the same building blocks — a golden simulator, synthetic benchmark
datasets and trained models — which are expensive, so this module provides a
small disk cache (under ``./artifacts`` by default, override with the
``REPRO_ARTIFACTS`` environment variable).

The experiment *profile* controls the scale of every experiment:

* ``quick`` (default): 64x64 low-resolution tiles / 128x128 high-resolution
  tiles, a few dozen training tiles, a handful of epochs.  Finishes on a
  laptop CPU in minutes and reproduces the qualitative shape of every result.
* ``full``: larger datasets, more epochs and more tiles; closer to the paper's
  protocol but still far below the 2000x2000 production resolution (see
  DESIGN.md).  Select with ``REPRO_PROFILE=full``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import knobs
from ..core.registry import create_model
from ..data.benchmarks import BenchmarkConfig, BenchmarkData, build_benchmark
from ..litho.simulator import LithoSimulator
from ..nn.serialization import load_state, save_state
from ..pipeline import ExecutionConfig, InferencePipeline
from ..training.config import TrainingConfig
from ..training.trainer import Trainer

__all__ = [
    "ARTIFACTS_ENV",
    "PROFILE_ENV",
    "ExperimentProfile",
    "Harness",
    "artifacts_dir",
    "get_profile",
    "resolve_artifacts_root",
]

#: Environment variables of the experiment harness (registered in
#: :mod:`repro.knobs`; catalogue in ``docs/configuration.md``).
PROFILE_ENV = "REPRO_PROFILE"
ARTIFACTS_ENV = "REPRO_ARTIFACTS"


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale parameters of the experiment suite."""

    name: str
    low_res_size: int            # image size of the (L) resolution rows
    high_res_size: int           # image size of the (H) resolution rows
    low_res_pixel: float         # nm per pixel at (L)
    high_res_pixel: float        # nm per pixel at (H)
    num_train_low: int
    num_test_low: int
    num_train_high: int
    num_test_high: int
    epochs_low: int
    epochs_high: int
    batch_size: int
    large_tile_scale: int
    large_tile_count: int
    opc_iterations: int          # OPC snapshots for Figure 8


_PROFILES = {
    "quick": ExperimentProfile(
        name="quick",
        low_res_size=64,
        high_res_size=128,
        low_res_pixel=16.0,
        high_res_pixel=8.0,
        num_train_low=40,
        num_test_low=8,
        num_train_high=24,
        num_test_high=6,
        epochs_low=8,
        epochs_high=5,
        batch_size=4,
        large_tile_scale=2,
        large_tile_count=3,
        opc_iterations=24,
    ),
    "full": ExperimentProfile(
        name="full",
        low_res_size=128,
        high_res_size=256,
        low_res_pixel=16.0,
        high_res_pixel=8.0,
        num_train_low=120,
        num_test_low=20,
        num_train_high=64,
        num_test_high=12,
        epochs_low=10,
        epochs_high=8,
        batch_size=8,
        large_tile_scale=2,
        large_tile_count=6,
        opc_iterations=24,
    ),
}


def get_profile(name: str | None = None) -> ExperimentProfile:
    """Resolve the experiment profile (argument > env var > "quick").

    Raises :class:`ValueError` (not ``KeyError``, whose ``repr``-style
    formatting mangles the message at the CLI) naming the offending source —
    the explicit argument or the ``REPRO_PROFILE`` environment variable — and
    listing the available profiles.
    """
    source = "profile" if name else PROFILE_ENV
    key = (name or knobs.read_string(PROFILE_ENV) or "quick").lower()
    if key not in _PROFILES:
        raise ValueError(
            f"unknown {source} '{key}'; available profiles: {', '.join(sorted(_PROFILES))}"
        )
    return _PROFILES[key]


def resolve_artifacts_root(root: "str | Path | None" = None) -> Path:
    """Resolve the artifacts root: explicit argument > ``REPRO_ARTIFACTS`` > repo default.

    A relative path here used to fall through to silent ``Path`` math against
    whatever the process working directory happened to be — artifacts landing
    in a different place per caller.  Now anything but an absolute path (from
    either source) raises a clear error naming where the value came from.
    """
    source = "artifacts root" if root is not None else ARTIFACTS_ENV
    if root is None:
        raw = knobs.read_string(ARTIFACTS_ENV)
        if raw is None:
            return Path(__file__).resolve().parents[3] / "artifacts"
        root = Path(raw)
    else:
        root = Path(root)
    if not root.is_absolute():
        raise knobs.KnobError(
            f"{source}={str(root)!r} must be an absolute path; a relative "
            "artifacts root would silently depend on the process working directory"
        )
    return root


def artifacts_dir() -> Path:
    """Directory used to cache datasets and trained models (created on demand)."""
    root = resolve_artifacts_root()
    root.mkdir(parents=True, exist_ok=True)
    return root


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


class Harness:
    """Caching factory for simulators, datasets and trained models."""

    # Dataset generation knobs shared by all benchmark families.
    DENSITY_SCALE = 1.2
    RETARGET_BIAS = 12.0

    def __init__(self, profile: ExperimentProfile | None = None) -> None:
        self.profile = profile or get_profile()
        self._simulators: dict[float, LithoSimulator] = {}
        self._benchmarks: dict[tuple, BenchmarkData] = {}
        self._models: dict[tuple, object] = {}

    # ------------------------------------------------------------------ #
    # Simulators
    # ------------------------------------------------------------------ #
    def simulator(self, pixel_size: float) -> LithoSimulator:
        """The golden simulator used to label datasets at this pixel size."""
        if pixel_size not in self._simulators:
            self._simulators[pixel_size] = LithoSimulator(
                pixel_size=pixel_size, num_kernels=10, kernel_support=31
            )
        return self._simulators[pixel_size]

    # ------------------------------------------------------------------ #
    # Inference pipelines
    # ------------------------------------------------------------------ #
    def _execution_config(self, config: ExecutionConfig | None, **named) -> ExecutionConfig:
        """``config`` (or an empty one) with this method's geometry arguments
        overlaid; the profile's ``batch_size`` fills the gap when neither
        sets one."""
        merged = (config if config is not None else ExecutionConfig()).merged(**named)
        if merged.batch_size is None:
            merged = merged.merged(batch_size=self.profile.batch_size)
        return merged

    def model_pipeline(
        self,
        model,
        config: ExecutionConfig | None = None,
        *,
        tile_size: int | None = None,
        batch_size: int | None = None,
        optical_diameter_pixels: int | None = None,
        pixel_size: float | None = None,
    ) -> InferencePipeline:
        """Batch-first inference pipeline over a learned model.

        This is the execution path every experiment driver uses: batched
        forwards at the profile's ``batch_size``, plus the §3.2 large-tile
        tiling/stitching plan when ``tile_size`` is given and masks exceed it.
        The stitching core margin depends on the serving resolution: pass
        ``pixel_size`` (or ``optical_diameter_pixels`` directly) when the
        pipeline serves anything other than the profile's low-res grid.

        Every other execution knob — workers, tile sharding, compilation,
        backend lane, BLAS threads, supervision — arrives as
        one :class:`~repro.pipeline.ExecutionConfig` document (``config=``);
        see ``docs/configuration.md`` for the knob catalogue.
        """
        cfg = self._execution_config(
            config,
            tile_size=tile_size, batch_size=batch_size,
            optical_diameter_pixels=optical_diameter_pixels,
        )
        if cfg.optical_diameter_pixels is None and cfg.tile_size is not None:
            # Only the stitching plan needs the optical ambit; don't build a
            # golden simulator (kernel generation) for measure-only pipelines.
            cfg = cfg.merged(
                optical_diameter_pixels=self.simulator(
                    pixel_size or self.profile.low_res_pixel
                ).optical_diameter_pixels
            )
        return InferencePipeline(model, config=cfg)

    # ------------------------------------------------------------------ #
    # Datasets
    # ------------------------------------------------------------------ #
    def benchmark_config(self, benchmark: str, resolution: str = "L") -> BenchmarkConfig:
        """Dataset configuration for one Table 2 row."""
        profile = self.profile
        if resolution.upper() == "L":
            return BenchmarkConfig(
                benchmark=benchmark,
                num_train=profile.num_train_low,
                num_test=profile.num_test_low,
                image_size=profile.low_res_size,
                pixel_size=profile.low_res_pixel,
                density_scale=self.DENSITY_SCALE,
                retarget_bias=self.RETARGET_BIAS,
                seed=7,
            )
        if resolution.upper() == "H":
            return BenchmarkConfig(
                benchmark=benchmark,
                num_train=profile.num_train_high,
                num_test=profile.num_test_high,
                image_size=profile.high_res_size,
                pixel_size=profile.high_res_pixel,
                density_scale=self.DENSITY_SCALE,
                retarget_bias=self.RETARGET_BIAS,
                seed=7,
            )
        raise ValueError("resolution must be 'L' or 'H'")

    def benchmark(self, benchmark: str, resolution: str = "L") -> BenchmarkData:
        """Build (or fetch from cache) one benchmark dataset."""
        key = (benchmark, resolution.upper(), self.profile.name)
        if key in self._benchmarks:
            return self._benchmarks[key]

        config = self.benchmark_config(benchmark, resolution)
        cache = artifacts_dir() / f"dataset-{benchmark}-{resolution.upper()}-{_digest(config.__dict__)}.npz"
        simulator = self.simulator(config.pixel_size)
        if cache.exists():
            with np.load(cache) as archive:
                from ..data.dataset import MaskResistDataset
                from ..layout.design_rules import rules_for

                data = BenchmarkData(
                    train=MaskResistDataset(
                        archive["train_masks"], archive["train_resists"],
                        name=f"{benchmark}-train", pixel_size=config.pixel_size,
                    ),
                    test=MaskResistDataset(
                        archive["test_masks"], archive["test_resists"],
                        name=f"{benchmark}-test", pixel_size=config.pixel_size,
                    ),
                    config=config,
                    rules=rules_for(benchmark),
                )
        else:
            data = build_benchmark(config, simulator)
            np.savez_compressed(
                cache,
                train_masks=data.train.masks,
                train_resists=data.train.resists,
                test_masks=data.test.masks,
                test_resists=data.test.resists,
            )
        self._benchmarks[key] = data
        return data

    # ------------------------------------------------------------------ #
    # Trained models
    # ------------------------------------------------------------------ #
    def training_config(self, resolution: str = "L") -> TrainingConfig:
        profile = self.profile
        epochs = profile.epochs_low if resolution.upper() == "L" else profile.epochs_high
        return TrainingConfig.fast(max_epochs=epochs, batch_size=profile.batch_size)

    def trained_model(
        self,
        model_name: str,
        benchmark: str,
        resolution: str = "L",
        **model_kwargs,
    ):
        """Train (or load from cache) one model on one benchmark dataset.

        Returns ``(model, history_dict)`` where the history records per-epoch
        losses and the wall-clock training time (used by Figure 6).
        """
        key = (model_name, benchmark, resolution.upper(), self.profile.name, _digest(model_kwargs))
        if key in self._models:
            return self._models[key]

        data = self.benchmark(benchmark, resolution)
        config = self.training_config(resolution)
        model = create_model(model_name, image_size=data.train.image_size, **model_kwargs)

        cache_key = _digest(
            {
                "model": model_name,
                "benchmark": benchmark,
                "resolution": resolution.upper(),
                "profile": self.profile.name,
                "kwargs": model_kwargs,
                "training": config.to_dict(),
            }
        )
        weights_path = artifacts_dir() / f"model-{model_name}-{benchmark}-{resolution.upper()}-{cache_key}.npz"
        history_path = weights_path.with_suffix(".history.json")

        if weights_path.exists() and history_path.exists():
            model.load_state_dict(load_state(weights_path))
            history = json.loads(history_path.read_text())
        else:
            trainer = Trainer(model, config)
            run = trainer.fit(data.train)
            history = {
                "epoch_losses": run.epoch_losses,
                "wall_time": run.wall_time,
                "epochs": run.epochs,
            }
            save_state(model.state_dict(), weights_path)
            history_path.write_text(json.dumps(history))

        self._models[key] = (model, history)
        return model, history
