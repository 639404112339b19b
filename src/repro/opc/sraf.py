"""Rule-based sub-resolution assist feature (SRAF) insertion.

SRAFs are narrow bars placed next to isolated feature edges.  They are below
the resolution limit, so they do not print themselves, but they change the
diffraction environment of the main feature and improve its process window.
The paper's benchmark masks contain SRAFs (DAMO splits them into a dedicated
colour channel); this module adds them with simple distance rules so the
synthetic datasets exercise the same mask content.
"""

from __future__ import annotations

import numpy as np

from ..layout.geometry import Layout, Rect

__all__ = ["insert_srafs", "sraf_rects_pixels"]


def insert_srafs(
    layout: Layout,
    sraf_width: float = 24.0,
    sraf_distance: float = 90.0,
    sraf_length_margin: float = 10.0,
    min_clearance: float = 40.0,
) -> list[Rect]:
    """Compute SRAF bars for a layout (in layout/nm coordinates).

    A bar is placed parallel to each edge of each shape at ``sraf_distance``
    from the edge, provided the bar does not come closer than
    ``min_clearance`` to any other shape and stays inside the layout bounds.
    Candidates are considered in shape order; an earlier accepted bar blocks
    later ones within ``min_clearance`` of it.
    """
    candidates: list[Rect] = []
    for rect in layout.shapes:
        length_x = rect.width - 2.0 * sraf_length_margin
        length_y = rect.height - 2.0 * sraf_length_margin
        if length_x > sraf_width:
            x0 = rect.x0 + sraf_length_margin
            x1 = rect.x1 - sraf_length_margin
            candidates.append(Rect(x0, rect.y0 - sraf_distance - sraf_width, x1, rect.y0 - sraf_distance))
            candidates.append(Rect(x0, rect.y1 + sraf_distance, x1, rect.y1 + sraf_distance + sraf_width))
        if length_y > sraf_width:
            y0 = rect.y0 + sraf_length_margin
            y1 = rect.y1 - sraf_length_margin
            candidates.append(Rect(rect.x0 - sraf_distance - sraf_width, y0, rect.x0 - sraf_distance, y1))
            candidates.append(Rect(rect.x1 + sraf_distance, y0, rect.x1 + sraf_distance + sraf_width, y1))
    if not candidates:
        return []

    boxes = np.array([(c.x0, c.y0, c.x1, c.y1) for c in candidates])
    shapes = np.array([(r.x0, r.y0, r.x1, r.y1) for r in layout.shapes]).reshape(-1, 4)
    bounds = layout.bounds
    grown = boxes + np.array([-min_clearance, -min_clearance, min_clearance, min_clearance])
    eligible = (
        (bounds.x0 <= boxes[:, 0])
        & (bounds.y0 <= boxes[:, 1])
        & (boxes[:, 2] <= bounds.x1)
        & (boxes[:, 3] <= bounds.y1)
        & ~_intersects(grown, shapes).any(axis=1)
    )
    # blocks[i, j]: candidate i's clearance box meets candidate j's bar.
    blocks = _intersects(grown, boxes)
    srafs: list[Rect] = []
    accepted: list[int] = []
    for i in np.flatnonzero(eligible).tolist():
        if not blocks[i, accepted].any():
            accepted.append(i)
            srafs.append(candidates[i])
    return srafs


def _intersects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[i, j]``: box ``a[i]`` meets box ``b[j]``, as ``Rect.intersects``.

    Boxes are rows of ``(x0, y0, x1, y1)``.
    """
    a, b = a[:, None, :], b[None, :, :]
    return ~(
        (a[..., 2] <= b[..., 0])
        | (b[..., 2] <= a[..., 0])
        | (a[..., 3] <= b[..., 1])
        | (b[..., 3] <= a[..., 1])
    )


def sraf_rects_pixels(srafs: list[Rect], pixel_size: float) -> list[tuple[int, int, int, int]]:
    """Convert SRAF rectangles to integer pixel boxes (row0, col0, row1, col1)."""
    boxes = []
    for rect in srafs:
        col0 = int(round(rect.x0 / pixel_size))
        col1 = max(col0 + 1, int(round(rect.x1 / pixel_size)))
        row0 = int(round(rect.y0 / pixel_size))
        row1 = max(row0 + 1, int(round(rect.y1 / pixel_size)))
        boxes.append((row0, col0, row1, col1))
    return boxes
