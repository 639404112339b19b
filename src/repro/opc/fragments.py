"""Edge fragmentation for edge-based OPC.

Every target rectangle is decomposed into edge *fragments*: sub-segments of
its four edges, each carrying a movable offset (in pixels, positive = outward
from the shape).  The OPC engine measures the edge placement error at each
fragment's control point and moves the fragment to compensate — the classical
edge-based OPC formulation used by the flows that produced the paper's
training data (MOSAIC, Calibre).

The fragment table
------------------
:func:`fragment_layout` returns one :class:`Fragments` table per layout: a
structure of arrays indexed by fragment id.  ``rects`` is the ``(S, 4)``
int array of the rectangles' pixel boxes ``(row0, col0, row1, col1)``
(exclusive ends; rectangles that round to zero pixels are left out).  The
per-fragment arrays are

* ``shape`` — the row of ``rects`` the fragment belongs to;
* ``side`` — :data:`LEFT`, :data:`RIGHT`, :data:`BOTTOM` or :data:`TOP`
  (0-3), which also indexes :data:`OUTWARD_NORMAL`;
* ``lo``, ``hi`` — the ``[lo, hi)`` pixel span along the edge;
* ``position`` — the fixed pixel coordinate of the drawn edge (``col0``,
  ``col1 - 1``, ``row0`` or ``row1 - 1``);
* ``offset`` — the current OPC correction in pixels (positive = outward);
* ``last_step`` — the previous move, for the half-step damping;
* ``stable_iters`` — consecutive iterations with |EPE| inside the freeze
  tolerance (``OPCConfig.freeze_after``);
* ``frozen`` — converged: skipped by the EPE measurement, never moved again.

Ids run in scan order: rectangles in layout order, and within a rectangle
the left/right pair of each row span, then the bottom/top pair of each
column span.  Every consumer (the EPE walk, the move step, the mask
painter) reads and writes fragments by these ids.  The table is built with
array arithmetic from the ``(S, 4)`` box array, with no loop over
rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from ..layout.geometry import Layout

__all__ = ["Fragments", "fragment_layout", "MaskPainter", "build_mask"]

# Edge identifiers: which side of the rectangle the fragment belongs to.
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3
#: ``(drow, dcol)`` unit step pointing out of the shape, per side.
OUTWARD_NORMAL = np.array([(0, -1), (0, 1), (-1, 0), (1, 0)], dtype=np.int64)
# Column of ``rects`` holding each side's drawn edge (col0, col1, row0, row1).
_EDGE_COLUMN = np.array([1, 3, 0, 2])


@dataclass(eq=False)
class Fragments:
    """The movable edge fragments of a layout, one array entry per fragment id.

    See the module docstring for the fields and the id order.
    """

    rects: np.ndarray
    shape: np.ndarray
    side: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    position: np.ndarray
    offset: np.ndarray = field(init=False)
    last_step: np.ndarray = field(init=False)
    stable_iters: np.ndarray = field(init=False)
    frozen: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.side)
        self.offset = np.zeros(n)
        self.last_step = np.zeros(n)
        self.stable_iters = np.zeros(n, dtype=np.int64)
        self.frozen = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.side)

    def control_points(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the fragments' control points: span midpoints on the drawn edge."""
        mid = (self.lo[ids] + self.hi[ids]) // 2
        position = self.position[ids]
        vertical = self.side[ids] <= RIGHT
        return np.where(vertical, mid, position), np.where(vertical, position, mid)

    def strips(
        self, ids: np.ndarray, image_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, grow, boxes)`` of the strips the fragments' rounded offsets paint.

        A positive offset grows the shape outward from the drawn edge, a
        negative one trims it inward.  ``boxes`` are ``(row0, col0, row1,
        col1)`` pixel bounds clipped to the image.  Fragments that paint
        nothing (zero offset, or a span outside the image) are left out.
        """
        offset = np.rint(self.offset[ids]).astype(np.int64)
        side = self.side[ids]
        edge = self.rects[self.shape[ids], _EDGE_COLUMN[side]]
        # The normal's sum is the side's outward sign along its axis.
        far = edge + OUTWARD_NORMAL[side].sum(axis=1) * offset
        a = np.maximum(np.minimum(edge, far), 0)
        b = np.minimum(np.maximum(edge, far), image_size)
        lo = np.maximum(self.lo[ids], 0)
        hi = np.minimum(self.hi[ids], image_size)
        vertical = (side <= RIGHT)[:, None]
        boxes = np.where(vertical, np.stack([lo, a, hi, b], 1), np.stack([a, lo, b, hi], 1))
        paints = (offset != 0) & (hi > lo)
        return ids[paints], offset[paints] > 0, boxes[paints]


def _fragment_spans(
    starts: np.ndarray, ends: np.ndarray, max_length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each ``[starts[e], ends[e])`` into spans no longer than ``max_length``.

    Returns ``(edge, lo, hi)``: the spans in edge order, each tagged with
    the index ``e`` of its range.  An edge of length ``n`` gets
    ``max(1, ceil(n / max_length))`` spans cut at the truncated points of
    ``np.linspace(start, end, count + 1)`` (the same float arithmetic,
    array-wide); empty spans and empty ranges give none.
    """
    lengths = ends - starts
    counts = np.where(lengths > 0, np.maximum(1, np.ceil(lengths / max_length)), 0)
    counts = counts.astype(np.int64)
    step = lengths / np.maximum(counts, 1)
    edge = np.repeat(np.arange(len(starts)), counts)
    k = np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts)
    start, step, count = starts[edge], step[edge], counts[edge]
    # linspace: k * step + start, with the last point set to the end itself.
    lo = (k * step + start).astype(np.int64)
    hi = np.where(k + 1 == count, ends[edge], ((k + 1) * step + start).astype(np.int64))
    keep = hi > lo
    return edge[keep], lo[keep], hi[keep]


def fragment_layout(
    layout: Layout, pixel_size: float, max_fragment_length: int = 32
) -> Fragments:
    """Fragment every rectangle of a layout into movable edges (pixel space)."""
    corners = np.array(
        [(rect.y0, rect.x0, rect.y1, rect.x1) for rect in layout.shapes], dtype=np.float64
    ).reshape(-1, 4)
    rects = np.rint(corners / pixel_size).astype(np.int64)
    rects = rects[(rects[:, 2] > rects[:, 0]) & (rects[:, 3] > rects[:, 1])]
    # Each rectangle's row range (its left/right pairs), then its column
    # range (its bottom/top pairs): edge ``e`` is axis ``e % 2`` of shape ``e // 2``.
    edge, lo, hi = _fragment_spans(
        rects[:, :2].reshape(-1), rects[:, 2:].reshape(-1), max_fragment_length
    )
    shape = np.repeat(edge // 2, 2)
    side = 2 * np.repeat(edge % 2, 2) + np.tile([LEFT, RIGHT], edge.size)
    # The drawn edge: col0, col1 - 1, row0 or row1 - 1.
    position = rects[shape, _EDGE_COLUMN[side]] - side % 2
    return Fragments(rects, shape, side, np.repeat(lo, 2), np.repeat(hi, 2), position)


def _box_pixels(boxes: np.ndarray, width: int, offset: npt.ArrayLike = 0) -> np.ndarray:
    """Flat indices ``row * width + col`` of the pixels of ``(row0, col0,
    row1, col1)`` boxes, box after box, each shifted by its ``offset``.

    Boxes must lie inside the image; empty ones give no pixels.
    """
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    heights = np.maximum(boxes[:, 2] - boxes[:, 0], 0)
    widths = np.maximum(boxes[:, 3] - boxes[:, 1], 0)
    areas = heights * widths
    origins = boxes[:, 0] * width + boxes[:, 1] + offset
    box = np.repeat(np.arange(len(boxes)), areas)
    k = np.arange(box.size) - np.repeat(np.cumsum(areas) - areas, areas)
    across = widths[box]
    return origins[box] + k // across * width + k % across


def _fill(image: np.ndarray, boxes, value) -> None:
    """Paint ``(row0, col0, row1, col1)`` boxes, clipped to the image, with ``value``."""
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    clipped = np.concatenate(
        [np.maximum(boxes[:, :2], 0), np.minimum(boxes[:, 2:], image.shape[0])], axis=1
    )
    image.reshape(-1)[_box_pixels(clipped, image.shape[1])] = value


class MaskPainter:
    """Incremental :func:`build_mask` for one OPC correction.

    Holds the drawn rectangles and the ``extra_rects`` (SRAF) boxes as
    bitmaps, an ``int16`` count of the grow and of the trim strips covering
    each pixel (one ``(2, N, N)`` array, grows first), and the strip each
    fragment last painted.  :meth:`repaint` subtracts the moved fragments'
    old strips and adds their new ones, each set in one scatter over the
    strips' flat pixel indices, so a move step costs what the moved
    fragments paint, not the layout.  Because each :func:`build_mask` pass
    paints a single value (grows 1, then trims 0, then extra rects 1), the
    mask is ``((drawn | grow > 0) & (trim == 0)) | extra`` — the same
    pixels, bit for bit.  :attr:`bits` is the boolean image of the latest
    :meth:`mask`, which is binary by construction.
    """

    def __init__(
        self,
        fragments: Fragments,
        image_size: int,
        extra_rects: list[tuple[int, int, int, int]] | None = None,
    ) -> None:
        self.fragments = fragments
        self.image_size = image_size
        self._drawn = np.zeros((image_size, image_size), dtype=bool)
        _fill(self._drawn, fragments.rects, True)
        self._extra = np.zeros((image_size, image_size), dtype=bool)
        _fill(self._extra, extra_rects or [], True)
        self._counts = np.zeros((2, image_size, image_size), dtype=np.int16)
        self.bits: np.ndarray | None = None
        # Each fragment's painted strip (an empty box when it paints nothing).
        self._grows = np.zeros(len(fragments), dtype=bool)
        self._boxes = np.zeros((len(fragments), 4), dtype=np.int64)
        self.repaint(np.arange(len(fragments)))

    def _add(self, grows: np.ndarray, boxes: np.ndarray, delta: int) -> None:
        # Trim strips count in the second plane of the (2, N, N) counts.
        plane = np.where(grows, 0, self.image_size * self.image_size)
        pixels = _box_pixels(boxes, self.image_size, plane)
        # An int16 scalar keeps np.add.at on its fast path.
        np.add.at(self._counts.reshape(-1), pixels, np.int16(delta))

    def repaint(self, moved: npt.ArrayLike) -> None:
        """Repaint the fragment ids whose rounded offset changed."""
        moved = np.unique(np.asarray(moved, dtype=np.intp))
        self._add(self._grows[moved], self._boxes[moved], -1)
        ids, grows, boxes = self.fragments.strips(moved, self.image_size)
        self._boxes[moved] = 0
        self._grows[ids], self._boxes[ids] = grows, boxes
        self._add(grows, boxes, 1)

    def mask(self) -> np.ndarray:
        """The current mask image (a fresh ``float64`` array)."""
        grow, trim = self._counts
        painted = grow > 0
        painted |= self._drawn
        painted &= trim == 0
        painted |= self._extra
        self.bits = painted
        return painted.astype(np.float64)


def build_mask(
    fragments: Fragments,
    image_size: int,
    extra_rects: list[tuple[int, int, int, int]] | None = None,
    *,
    painter: MaskPainter | None = None,
    moved: npt.ArrayLike = (),
) -> np.ndarray:
    """Rasterize the fragmented shapes (with their current offsets) into a mask image.

    The drawn rectangles are filled first; each fragment then grows
    (positive offset) or trims (negative offset) a strip along its edge span
    — all grows first, then all trims.  ``extra_rects`` (row0, col0, row1,
    col1) are painted afterwards — used for SRAF bars, which are not
    OPC-corrected.

    With ``painter`` (a :class:`MaskPainter` built from this table, image
    size and extra rects), only the ``moved`` fragment ids are repainted and
    the mask comes from the painter: the same pixels at a cost proportional
    to the moved fragments.
    """
    if painter is not None:
        if painter.fragments is not fragments or painter.image_size != image_size:
            raise ValueError("build_mask: the painter was built for other fragments or image size")
        painter.repaint(moved)
        return painter.mask()
    mask = np.zeros((image_size, image_size), dtype=np.float64)
    _fill(mask, fragments.rects, 1.0)
    _, grows, boxes = fragments.strips(np.arange(len(fragments)), image_size)
    # Trims win where they overlap growth, matching how OPC biases are
    # resolved on manufacturing grids.
    _fill(mask, boxes[grows], 1.0)
    _fill(mask, boxes[~grows], 0.0)
    _fill(mask, extra_rects or [], 1.0)
    return mask
