"""Edge placement error (EPE) measurement.

EPE is the signed distance (in pixels here, convertible to nm by the caller)
between a target edge and the printed resist contour, measured along the edge
normal at a fragment's control point.  Positive EPE means the printed contour
lies outside the target (over-printing); negative means under-printing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fragments import OUTWARD_NORMAL, Fragments

__all__ = ["EPEStatistics", "measure_layout_epe"]


@dataclass(frozen=True)
class EPEStatistics:
    """Summary of EPE over all measured control points.

    ``frozen_fragments`` counts the fragments *skipped* by the measurement
    because the OPC engine froze them as converged
    (``OPCConfig.freeze_after``); ``values`` covers only the active ones.
    """

    values: np.ndarray
    pixel_size: float
    frozen_fragments: int = 0

    @property
    def mean_abs_nm(self) -> float:
        return float(np.mean(np.abs(self.values))) * self.pixel_size if self.values.size else 0.0

    @property
    def max_abs_nm(self) -> float:
        return float(np.max(np.abs(self.values))) * self.pixel_size if self.values.size else 0.0

    @property
    def rms_nm(self) -> float:
        return float(np.sqrt(np.mean(self.values**2))) * self.pixel_size if self.values.size else 0.0

    def violations(self, tolerance_nm: float) -> int:
        """Number of control points whose |EPE| exceeds ``tolerance_nm``."""
        return int(np.sum(np.abs(self.values) * self.pixel_size > tolerance_nm))


def measure_layout_epe(
    resist: np.ndarray,
    fragments: Fragments,
    pixel_size: float,
    search_range: int = 24,
    skip_frozen: bool = False,
) -> EPEStatistics:
    """Measure EPE at the control point of every fragment (in pixels).

    Each fragment's walk reads the resist along its edge normal through its
    control point, ``search_range`` pixels out and in, as one ray per
    fragment; pixels outside the image count as unprinted, the rest as
    printed where the resist is ``>= 0.5``.

    * Control point printed: the contour lies at or outside the target
      edge.  The EPE is the number of consecutive printed pixels outward of
      the control point, at most ``search_range``.
    * Control point not printed: the contour lies inside the target (or the
      feature vanished).  The EPE is minus the number of inward steps to the
      first printed pixel, at most ``search_range``.  The walk also stops
      where it steps onto the shape's centre pixel ``((row0 + row1) // 2,
      (col0 + col1) // 2)``, which only happens when the centre lies on the
      ray: fragments whose midpoint misses the centre's row or column walk on
      to the first printed pixel or to ``search_range``.

    With ``skip_frozen=True``, fragments the OPC engine froze as converged
    are not walked (their count is reported in ``frozen_fragments``
    instead) — this is what shrinks the measurement as OPC converges.
    ``values`` holds the active fragments in ascending id order, which the
    engine's move step relies on.
    """
    ids = np.flatnonzero(~fragments.frozen) if skip_frozen else np.arange(len(fragments))
    rows, cols = fragments.control_points(ids)
    drow, dcol = OUTWARD_NORMAL[fragments.side[ids]].T
    steps = np.arange(-search_range, search_range + 1)
    ray_rows = rows[:, None] + drow[:, None] * steps
    ray_cols = cols[:, None] + dcol[:, None] * steps
    h, w = resist.shape
    inside = (ray_rows >= 0) & (ray_rows < h) & (ray_cols >= 0) & (ray_cols < w)
    printed = inside & (resist[np.clip(ray_rows, 0, h - 1), np.clip(ray_cols, 0, w - 1)] >= 0.5)

    n = len(ids)
    outward = printed[:, search_range + 1 :]
    # First unprinted pixel outward (a sentinel past the range caps it).
    out = np.argmin(np.concatenate([outward, np.zeros((n, 1), bool)], axis=1), axis=1)
    inward = printed[:, :search_range][:, ::-1]
    # Steps to the first printed pixel inward (past the range when none is).
    into = np.argmax(np.concatenate([inward, np.ones((n, 1), bool)], axis=1), axis=1) + 1
    rect = fragments.rects[fragments.shape[ids]]
    centre_row = (rect[:, 0] + rect[:, 2]) // 2
    centre_col = (rect[:, 1] + rect[:, 3]) // 2
    to_centre = (rows - centre_row) * drow + (cols - centre_col) * dcol
    on_ray = np.where(drow == 0, rows == centre_row, cols == centre_col) & (to_centre >= 1)
    into = np.minimum(np.minimum(into, search_range), np.where(on_ray, to_centre, search_range))
    values = np.where(printed[:, search_range], out, -into).astype(np.float64)
    return EPEStatistics(
        values=values,
        pixel_size=pixel_size,
        frozen_fragments=len(fragments) - len(ids),
    )
