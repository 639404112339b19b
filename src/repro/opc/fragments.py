"""Edge fragmentation for edge-based OPC.

Every target rectangle is decomposed into edge *fragments*: sub-segments of
its four edges, each carrying a movable offset (in pixels, positive = outward
from the shape).  The OPC engine measures the edge placement error at each
fragment's control point and moves the fragment to compensate — the classical
edge-based OPC formulation used by the flows that produced the paper's
training data (MOSAIC, Calibre).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..layout.geometry import Layout, Rect

__all__ = [
    "EdgeFragment",
    "FragmentedShape",
    "fragment_layout",
    "MaskPainter",
    "build_mask",
]

# Edge identifiers: which side of the rectangle the fragment belongs to.
LEFT, RIGHT, BOTTOM, TOP = "left", "right", "bottom", "top"


@dataclass
class EdgeFragment:
    """A movable fragment of one rectangle edge (pixel coordinates).

    ``span`` is the (start, end) pixel range along the edge direction;
    ``position`` is the fixed pixel coordinate of the drawn edge;
    ``offset`` is the current OPC correction in pixels (positive = outward).
    """

    side: str
    span: tuple[int, int]
    position: int
    offset: float = 0.0
    last_step: float = 0.0
    #: Converged-and-frozen flag (``OPCConfig.freeze_after``): a frozen
    #: fragment is skipped by EPE measurement and never moves again.
    frozen: bool = False
    #: Consecutive iterations with |EPE| inside the freeze tolerance.
    stable_iters: int = 0

    @property
    def control_point(self) -> tuple[int, int]:
        """(row, col) of the control point at the fragment midpoint on the drawn edge."""
        mid = (self.span[0] + self.span[1]) // 2
        if self.side in (LEFT, RIGHT):
            return (mid, self.position)
        return (self.position, mid)

    @property
    def outward_normal(self) -> tuple[int, int]:
        """(drow, dcol) unit step pointing out of the shape."""
        return {
            LEFT: (0, -1),
            RIGHT: (0, 1),
            BOTTOM: (-1, 0),
            TOP: (1, 0),
        }[self.side]


@dataclass
class FragmentedShape:
    """A target rectangle together with its movable edge fragments."""

    rect_pixels: tuple[int, int, int, int]   # (row0, col0, row1, col1), exclusive end
    fragments: list[EdgeFragment] = field(default_factory=list)


def _fragment_spans(start: int, end: int, max_length: int) -> list[tuple[int, int]]:
    """Split ``[start, end)`` into spans no longer than ``max_length``."""
    length = end - start
    if length <= 0:
        return []
    n = max(1, int(np.ceil(length / max_length)))
    edges = np.linspace(start, end, n + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def fragment_layout(
    layout: Layout, pixel_size: float, max_fragment_length: int = 32
) -> list[FragmentedShape]:
    """Fragment every rectangle of a layout into movable edges (pixel space)."""
    shapes: list[FragmentedShape] = []
    for rect in layout.shapes:
        col0 = int(round(rect.x0 / pixel_size))
        col1 = int(round(rect.x1 / pixel_size))
        row0 = int(round(rect.y0 / pixel_size))
        row1 = int(round(rect.y1 / pixel_size))
        if col1 <= col0 or row1 <= row0:
            continue
        fragments: list[EdgeFragment] = []
        for span in _fragment_spans(row0, row1, max_fragment_length):
            fragments.append(EdgeFragment(LEFT, span, col0))
            fragments.append(EdgeFragment(RIGHT, span, col1 - 1))
        for span in _fragment_spans(col0, col1, max_fragment_length):
            fragments.append(EdgeFragment(BOTTOM, span, row0))
            fragments.append(EdgeFragment(TOP, span, row1 - 1))
        shapes.append(FragmentedShape((row0, col0, row1, col1), fragments))
    return shapes


def _box(box: tuple[int, int, int, int], image_size: int) -> tuple[slice, slice]:
    """Pixel slices of a ``(row0, col0, row1, col1)`` box clipped to the image."""
    row0, col0, row1, col1 = box
    return slice(max(row0, 0), min(row1, image_size)), slice(max(col0, 0), min(col1, image_size))


def _strip(
    shape: FragmentedShape, fragment: EdgeFragment, image_size: int
) -> tuple[bool, tuple[slice, slice]] | None:
    """``(grow, pixel slices)`` of the strip a fragment's rounded offset paints.

    ``None`` when it paints nothing (zero offset, or a span outside the
    image).  A positive offset grows the shape outward from the drawn edge,
    a negative one trims it inward.
    """
    offset = int(round(fragment.offset))
    lo, hi = fragment.span
    lo, hi = max(lo, 0), min(hi, image_size)
    if offset == 0 or hi <= lo:
        return None
    grow = offset > 0
    magnitude = abs(offset)
    row0, col0, row1, col1 = shape.rect_pixels
    if fragment.side == LEFT:
        a, b = (col0 - magnitude, col0) if grow else (col0, col0 + magnitude)
    elif fragment.side == RIGHT:
        a, b = (col1, col1 + magnitude) if grow else (col1 - magnitude, col1)
    elif fragment.side == BOTTOM:
        a, b = (row0 - magnitude, row0) if grow else (row0, row0 + magnitude)
    else:
        a, b = (row1, row1 + magnitude) if grow else (row1 - magnitude, row1)
    across = slice(max(a, 0), min(b, image_size))
    if fragment.side in (LEFT, RIGHT):
        return grow, (slice(lo, hi), across)
    return grow, (across, slice(lo, hi))


class MaskPainter:
    """Incremental :func:`build_mask` for one OPC correction.

    Holds the drawn rectangles and the ``extra_rects`` (SRAF) boxes as
    bitmaps, an ``int16`` count of the grow and of the trim strips covering
    each pixel, and the strip each fragment last painted.  :meth:`repaint`
    subtracts a moved fragment's old strip and adds its new one, so a move
    step costs what the moved fragments paint, not the layout.  Because each
    :func:`build_mask` pass paints a single value (grows 1, then trims 0,
    then extra rects 1), the mask is ``((drawn | grow > 0) & (trim == 0)) |
    extra`` — the same pixels, bit for bit.
    """

    def __init__(
        self,
        shapes: list[FragmentedShape],
        image_size: int,
        extra_rects: list[tuple[int, int, int, int]] | None = None,
    ) -> None:
        self.shapes = shapes
        self.image_size = image_size
        self._drawn = np.zeros((image_size, image_size), dtype=bool)
        for shape in shapes:
            self._drawn[_box(shape.rect_pixels, image_size)] = True
        self._extra = np.zeros((image_size, image_size), dtype=bool)
        for box in extra_rects or ():
            self._extra[_box(box, image_size)] = True
        self._grow = np.zeros((image_size, image_size), dtype=np.int16)
        self._trim = np.zeros((image_size, image_size), dtype=np.int16)
        self._strips: dict[tuple[int, int], tuple[np.ndarray, tuple[slice, slice]]] = {}
        self.repaint(
            (si, fi) for si, shape in enumerate(shapes) for fi in range(len(shape.fragments))
        )

    def repaint(self, moved: Iterable[tuple[int, int]]) -> None:
        """Repaint the ``(shape, fragment)`` ids whose rounded offset changed."""
        for key in moved:
            old = self._strips.pop(key, None)
            if old is not None:
                counts, region = old
                counts[region] -= 1
            shape = self.shapes[key[0]]
            strip = _strip(shape, shape.fragments[key[1]], self.image_size)
            if strip is not None:
                grow, region = strip
                counts = self._grow if grow else self._trim
                counts[region] += 1
                self._strips[key] = (counts, region)

    def mask(self) -> np.ndarray:
        """The current mask image (a fresh ``float64`` array)."""
        painted = self._grow > 0
        painted |= self._drawn
        painted &= self._trim == 0
        painted |= self._extra
        return painted.astype(np.float64)


def build_mask(
    shapes: list[FragmentedShape],
    image_size: int,
    extra_rects: list[tuple[int, int, int, int]] | None = None,
    *,
    painter: MaskPainter | None = None,
    moved: Iterable[tuple[int, int]] = (),
) -> np.ndarray:
    """Rasterize fragmented shapes (with their current offsets) into a mask image.

    The drawn rectangle is filled first; each fragment then grows (positive
    offset) or trims (negative offset) a strip along its edge span — all
    grows first, then all trims.  ``extra_rects`` (row0, col0, row1, col1)
    are painted afterwards — used for SRAF bars, which are not OPC-corrected.

    With ``painter`` (a :class:`MaskPainter` built from these shapes, image
    size and extra rects), only the ``moved`` fragments are repainted and the
    mask comes from the painter: the same pixels at a cost proportional to
    the moved fragments.
    """
    if painter is not None:
        if painter.shapes is not shapes or painter.image_size != image_size:
            raise ValueError("build_mask: the painter was built for other shapes or image size")
        painter.repaint(moved)
        return painter.mask()
    mask = np.zeros((image_size, image_size), dtype=np.float64)
    for shape in shapes:
        mask[_box(shape.rect_pixels, image_size)] = 1.0
    strips = [
        strip
        for shape in shapes
        for fragment in shape.fragments
        if (strip := _strip(shape, fragment, image_size)) is not None
    ]
    # Trims win where they overlap growth, matching how OPC biases are
    # resolved on manufacturing grids.
    for grow in (True, False):
        for strip_grows, region in strips:
            if strip_grows == grow:
                mask[region] = 1.0 if grow else 0.0
    for box in extra_rects or ():
        mask[_box(box, image_size)] = 1.0
    return mask
