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
    shapes = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in layout.shapes], dtype=np.float64
    ).reshape(-1, 4)
    x0, y0, x1, y1 = shapes.T
    margin, distance, width = sraf_length_margin, sraf_distance, sraf_width
    # Per shape, the bars below, above, left and right of it: (S, 4, 4).
    bars = np.stack(
        [
            np.stack([x0 + margin, y0 - distance - width, x1 - margin, y0 - distance], 1),
            np.stack([x0 + margin, y1 + distance, x1 - margin, y1 + distance + width], 1),
            np.stack([x0 - distance - width, y0 + margin, x0 - distance, y1 - margin], 1),
            np.stack([x1 + distance, y0 + margin, x1 + distance + width, y1 - margin], 1),
        ],
        axis=1,
    )
    long_x = (x1 - x0) - 2.0 * margin > width
    long_y = (y1 - y0) - 2.0 * margin > width
    # Shape order, and below, above, left, right within a shape.
    boxes = bars[np.stack([long_x, long_x, long_y, long_y], 1)]
    bounds = layout.bounds
    grown = boxes + np.array([-min_clearance, -min_clearance, min_clearance, min_clearance])
    eligible = np.flatnonzero(
        (bounds.x0 <= boxes[:, 0])
        & (bounds.y0 <= boxes[:, 1])
        & (boxes[:, 2] <= bounds.x1)
        & (boxes[:, 3] <= bounds.y1)
        & ~_intersects(grown, shapes).any(axis=1)
    )
    boxes, grown = boxes[eligible], grown[eligible]
    # blocks[i, j]: candidate i's clearance box meets candidate j's bar, so
    # accepting j rejects every later i of its column.
    blocks = _intersects(grown, boxes)
    free = np.ones(len(boxes), dtype=bool)
    accepted = []
    for i in range(len(boxes)):
        if free[i]:
            accepted.append(i)
            free &= ~blocks[:, i]
    return [Rect(*bar) for bar in boxes[accepted].tolist()]


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
    """Convert SRAF rectangles to integer pixel boxes (row0, col0, row1, col1),
    at least one pixel on each side."""
    corners = np.array([(r.y0, r.x0, r.y1, r.x1) for r in srafs], dtype=np.float64)
    boxes = np.rint(corners.reshape(-1, 4) / pixel_size).astype(np.int64)
    boxes[:, 2:] = np.maximum(boxes[:, 2:], boxes[:, :2] + 1)
    return [tuple(box) for box in boxes.tolist()]
