"""Large-tile simulation scheme (paper §3.2, eq. (12)-(14), Figure 5).

A DOINN trained on ``H x W`` tiles degrades when applied directly to an
``sH x sW`` mask because the Fourier-unit weights were trained for the
spectrum of the smaller tile.  :class:`LargeTileSimulator` restores full
quality via the half-overlapping tile / core-stitching scheme.

Since the batch-first refactor this class is a thin compatibility wrapper
over :class:`repro.pipeline.InferencePipeline`, which owns the tiling plan,
the batched global-perception execution and the core stitching.  New code
should use the pipeline directly (it also accepts mask batches and exposes
execution stats); this wrapper keeps the original single-mask API:

* :meth:`predict` — the large-tile scheme (pipeline ``stitch`` plan),
* :meth:`predict_naive` — the whole mask straight through the DOINN
  (paper Table 4, "DOINN" row; pipeline native plan).

Inference runs under :func:`repro.nn.eval_mode`, so the model's train/eval
state is restored afterwards instead of being clobbered to training mode.
"""

from __future__ import annotations

import numpy as np

from ..pipeline import ExecutionConfig, InferencePipeline
from .doinn import DOINN

__all__ = ["LargeTileSimulator"]


class LargeTileSimulator:
    """Apply a trained DOINN to masks larger than its training tile size."""

    def __init__(
        self,
        model: DOINN,
        train_tile_size: int,
        optical_diameter_pixels: int = 16,
        batch_size: int = 8,
    ) -> None:
        if train_tile_size % model.config.pool_factor:
            raise ValueError("train_tile_size must be divisible by the GP pooling factor")
        self.model = model
        self.train_tile_size = train_tile_size
        self.optical_diameter_pixels = optical_diameter_pixels
        self.pipeline = InferencePipeline(
            model,
            ExecutionConfig(
                tile_size=train_tile_size,
                batch_size=batch_size,
                optical_diameter_pixels=optical_diameter_pixels,
            ),
        )

    # ------------------------------------------------------------------ #
    def _gp_features_tiled(self, mask: np.ndarray) -> np.ndarray:
        """Large-tile global perception (paper eq. (13)): tile, run GP, stitch cores."""
        return self.pipeline.gp_features(mask)

    # ------------------------------------------------------------------ #
    def predict(self, mask: np.ndarray) -> np.ndarray:
        """Predict the resist image of a large mask with core stitching."""
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError("predict expects a single 2-D mask image")
        return self.pipeline.predict(mask, stitch=True)

    def predict_naive(self, mask: np.ndarray) -> np.ndarray:
        """Feed the large mask straight through the DOINN (paper Table 4, "DOINN" row)."""
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError("predict_naive expects a single 2-D mask image")
        return self.pipeline.predict(mask, stitch=False)
