"""The fragment table against per-fragment references, and degenerate layouts.

The references below are the per-fragment loops the OPC host code ran before
fragments became one structure of arrays: the EPE walk of a single control
point, the move step over every fragment in scan order and the strip ladder
of one fragment.  The table forms must give equal arrays, bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.layout import Layout, Rect
from repro.litho import LithoSimulator
from repro.opc import (
    EPEStatistics,
    MaskPainter,
    OPCConfig,
    OPCEngine,
    build_mask,
    fragment_layout,
    measure_layout_epe,
)
from repro.opc.fragments import BOTTOM, LEFT, RIGHT, TOP

NORMALS = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}


@pytest.fixture(scope="module")
def simulator() -> LithoSimulator:
    return LithoSimulator(pixel_size=8.0, num_kernels=10, kernel_support=31)


# --------------------------------------------------------------------- #
# Per-fragment references
# --------------------------------------------------------------------- #
def reference_control_point(fragments, i):
    mid = (int(fragments.lo[i]) + int(fragments.hi[i])) // 2
    position = int(fragments.position[i])
    return (mid, position) if fragments.side[i] in (LEFT, RIGHT) else (position, mid)


def reference_interior(fragments, i):
    row0, col0, row1, col1 = fragments.rects[fragments.shape[i]].tolist()
    return ((row0 + row1) // 2, (col0 + col1) // 2)


def reference_fragment_epe(resist, control_point, normal, shape_interior, search_range):
    """The walk of one control point, outward when it printed, inward when not."""
    h, w = resist.shape
    row, col = control_point
    drow, dcol = normal

    def printed(r: int, c: int) -> bool:
        if 0 <= r < h and 0 <= c < w:
            return resist[r, c] >= 0.5
        return False

    if printed(row, col):
        distance = 0
        r, c = row, col
        while distance < search_range and printed(r + drow, c + dcol):
            r, c = r + drow, c + dcol
            distance += 1
        return float(distance)
    distance = 0
    r, c = row, col
    while distance < search_range and not printed(r, c):
        r, c = r - drow, c - dcol
        distance += 1
        if (r, c) == shape_interior:
            break
    return float(-distance)


def reference_layout_epe(resist, fragments, search_range, skip_frozen, interior=True):
    values = []
    for i in range(len(fragments)):
        if skip_frozen and fragments.frozen[i]:
            continue
        centre = reference_interior(fragments, i) if interior else None
        values.append(
            reference_fragment_epe(
                resist,
                reference_control_point(fragments, i),
                NORMALS[int(fragments.side[i])],
                centre,
                search_range,
            )
        )
    return np.asarray(values, dtype=np.float64)


def reference_apply_moves(config, state, values):
    """The move step over every fragment in scan order, one Python float at a time.

    ``state`` is a list of per-fragment dicts (``offset``, ``last_step``,
    ``stable_iters``, ``frozen``); returns the ids whose rounded offset changed.
    """
    values = iter(values.tolist())
    moved = []
    for i, fragment in enumerate(state):
        if fragment["frozen"]:
            continue
        epe = next(values)
        if config.freeze_after is not None:
            if abs(epe) <= config.freeze_tolerance:
                fragment["stable_iters"] += 1
                if fragment["stable_iters"] >= config.freeze_after:
                    fragment["frozen"] = True
                    continue
            else:
                fragment["stable_iters"] = 0
        if epe <= -config.epe_search_range:
            step = 1.0
        else:
            step = float(min(max(-config.gain * epe, -config.max_step), config.max_step))
        if step * fragment["last_step"] < 0.0:
            step *= 0.5
        fragment["last_step"] = step
        previous_pixels = int(round(fragment["offset"]))
        fragment["offset"] = float(
            min(max(fragment["offset"] + step, -config.max_offset), config.max_offset)
        )
        if int(round(fragment["offset"])) != previous_pixels:
            moved.append(i)
    return moved


def reference_strip(fragments, i, image_size):
    """``(grow, slices)`` of the strip fragment ``i`` paints, ``None`` when it paints nothing."""
    offset = int(round(fragments.offset[i]))
    lo, hi = int(fragments.lo[i]), int(fragments.hi[i])
    lo, hi = max(lo, 0), min(hi, image_size)
    if offset == 0 or hi <= lo:
        return None
    grow = offset > 0
    magnitude = abs(offset)
    row0, col0, row1, col1 = fragments.rects[fragments.shape[i]].tolist()
    side = fragments.side[i]
    if side == 0:
        a, b = (col0 - magnitude, col0) if grow else (col0, col0 + magnitude)
    elif side == 1:
        a, b = (col1, col1 + magnitude) if grow else (col1 - magnitude, col1)
    elif side == 2:
        a, b = (row0 - magnitude, row0) if grow else (row0, row0 + magnitude)
    else:
        a, b = (row1, row1 + magnitude) if grow else (row1 - magnitude, row1)
    across = slice(max(a, 0), min(b, image_size))
    if side in (0, 1):
        return grow, (slice(lo, hi), across)
    return grow, (across, slice(lo, hi))


# --------------------------------------------------------------------- #
# Random inputs
# --------------------------------------------------------------------- #
def random_layout(rng, size_nm=512.0, count=8):
    """Random rectangles on an 8 nm grid (some odd-sized), several on the border."""
    layout = Layout(bounds=Rect(0, 0, size_nm, size_nm))
    cells = int(size_nm // 8)
    for k in range(count):
        w, h = (int(v) for v in rng.integers(1, 24, size=2))
        x = int(rng.integers(0, cells - w + 1))
        y = int(rng.integers(0, cells - h + 1))
        if k % 4 == 0:
            x = 0 if k % 8 == 0 else cells - w      # left or right border
        if k % 4 == 1:
            y = 0 if k % 8 == 1 else cells - h      # bottom or top border
        layout.add(Rect(8.0 * x, 8.0 * y, 8.0 * (x + w), 8.0 * (y + h)))
    return layout


def random_resists(rng, fragments, shape):
    """All-printed, all-unprinted, noise and contour-like resist images."""
    h, w = shape
    yield np.ones(shape)
    yield np.zeros(shape)
    yield rng.random(shape)
    yield (rng.random(shape) > 0.8).astype(np.float64)
    fragments.offset[:] = rng.integers(-6, 7, size=len(fragments))
    contour = build_mask(fragments, max(h, w))[:h, :w]
    fragments.offset[:] = 0.0
    yield contour * rng.uniform(0.3, 1.0, size=shape)


@pytest.mark.parametrize("search_range", [0, 1, 6, 24])
@pytest.mark.parametrize("seed", range(4))
def test_epe_walk_matches_per_fragment_reference(seed, search_range):
    rng = np.random.default_rng(seed)
    stops = saturated = 0
    for max_length in (4, 32):
        fragments = fragment_layout(random_layout(rng), 8.0, max_length)
        fragments.frozen[:] = rng.random(len(fragments)) < 0.3
        # A square image, and a smaller non-square one whose rays (and some
        # control points) leave the image.
        for shape in ((64, 64), (48, 56)):
            for resist in random_resists(rng, fragments, shape):
                for skip_frozen in (False, True):
                    stats = measure_layout_epe(
                        resist, fragments, 8.0, search_range, skip_frozen=skip_frozen
                    )
                    expected = reference_layout_epe(resist, fragments, search_range, skip_frozen)
                    assert stats.values.dtype == np.float64
                    assert stats.values.tobytes() == expected.tobytes()
                    frozen = int(fragments.frozen.sum()) if skip_frozen else 0
                    assert stats.frozen_fragments == frozen
                    walked = reference_layout_epe(
                        resist, fragments, search_range, skip_frozen, interior=False
                    )
                    stops += int(np.sum(walked != expected))
                    saturated += int(np.sum(expected == -search_range))
    # The data covers walks the centre stopped and walks that ran to the range.
    if search_range > 1:
        assert stops > 0
    assert saturated > 0


def test_epe_centre_stop_fires_only_on_the_ray():
    """An unprinted 9 px via: midpoints on the centre's row or column stop at
    the centre, the others walk on to the search range."""
    layout = Layout(bounds=Rect(0, 0, 512, 512), shapes=[Rect(200, 200, 272, 272)])
    resist = np.zeros((64, 64))
    for max_length in (16, 3):
        fragments = fragment_layout(layout, 8.0, max_length)
        assert fragments.rects.tolist() == [[25, 25, 34, 34]]  # centre (29, 29)
        values = measure_layout_epe(resist, fragments, 8.0, 24).values
        rows, cols = fragments.control_points(np.arange(len(fragments)))
        meets = np.where(fragments.side <= RIGHT, rows == 29, cols == 29)
        assert values.tobytes() == reference_layout_epe(resist, fragments, 24, False).tobytes()
        assert np.all(values[meets] == -4.0)
        assert np.all(values[~meets] == -24.0)
        assert meets.all() if max_length == 16 else 0 < meets.sum() < len(fragments)


@pytest.mark.parametrize("freeze_after", [None, 1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_apply_moves_matches_per_fragment_reference(simulator, seed, freeze_after):
    rng = np.random.default_rng(seed)
    config = OPCConfig(
        freeze_after=freeze_after,
        freeze_tolerance=1.0,
        epe_search_range=6,
        gain=0.6,
        max_step=2.5,
        max_offset=4.0,
    )
    engine = OPCEngine(simulator, config)
    fragments = fragment_layout(random_layout(rng), 8.0, 4)
    state = [
        {"offset": 0.0, "last_step": 0.0, "stable_iters": 0, "frozen": False}
        for _ in range(len(fragments))
    ]
    reversals = saturated = 0
    for _ in range(12):
        last_step = fragments.last_step.copy()
        active = int(np.sum(~fragments.frozen))
        # Integer EPEs inside and at the range, and in-tolerance ones.
        values = rng.integers(-6, 5, size=active).astype(np.float64)
        values[rng.random(active) < 0.3] = 0.0
        saturated += int(np.sum(values <= -6))
        stats = EPEStatistics(values=values, pixel_size=8.0)
        moved = engine._apply_moves(fragments, stats)
        expected_moved = reference_apply_moves(config, state, values)
        assert moved.tolist() == expected_moved
        for field in ("offset", "last_step"):
            expected = np.array([f[field] for f in state], dtype=np.float64)
            assert getattr(fragments, field).tobytes() == expected.tobytes()
        assert fragments.stable_iters.tolist() == [f["stable_iters"] for f in state]
        assert fragments.frozen.tolist() == [f["frozen"] for f in state]
        reversals += int(np.sum(fragments.last_step * last_step < 0.0))
    assert saturated > 0 and reversals > 0
    if freeze_after is not None:
        assert fragments.frozen.any()
    else:
        assert not fragments.frozen.any()


def test_apply_moves_damps_sign_reversals(simulator):
    engine = OPCEngine(simulator, OPCConfig(gain=1.0, max_step=3.0, max_offset=12.0))
    fragments = fragment_layout(random_layout(np.random.default_rng(0), count=1), 8.0, 64)
    n = len(fragments)
    state = [
        {"offset": 0.0, "last_step": 0.0, "stable_iters": 0, "frozen": False} for _ in range(n)
    ]
    for epe in (-2.0, 2.0, -1.0, 1.0, -24.0, 0.5):
        values = np.full(n, epe)
        moved = engine._apply_moves(fragments, EPEStatistics(values=values, pixel_size=8.0))
        assert moved.tolist() == reference_apply_moves(engine.config, state, values)
        assert fragments.offset.tobytes() == np.array([f["offset"] for f in state]).tobytes()
        assert fragments.last_step.tobytes() == np.array([f["last_step"] for f in state]).tobytes()
    # Steps 2, then reversals halved: -1, 0.5, -0.5, the unprinted 1.0 as
    # 0.5, and -0.25.
    assert fragments.offset.tolist() == [1.25] * n


@pytest.mark.parametrize("image_size", [64, 40])
@pytest.mark.parametrize("seed", range(4))
def test_strips_match_per_fragment_ladder(seed, image_size):
    """A 64 px image holds the layout; in a 40 px one some spans lie outside."""
    rng = np.random.default_rng(seed)
    fragments = fragment_layout(random_layout(rng, count=12), 8.0, int(rng.integers(3, 20)))
    ids = np.arange(len(fragments))
    for _ in range(10):
        # Whole, half and large offsets, and zeros, both signs.
        choices = [-20.0, -2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5, 3.2, 20.0]
        fragments.offset[:] = rng.choice(choices, size=len(ids))
        uniform = rng.random(len(ids)) < 0.3
        fragments.offset[uniform] = rng.uniform(-12.0, 12.0, size=int(uniform.sum()))
        kept, grows, boxes = fragments.strips(ids, image_size)
        expected = {i: reference_strip(fragments, i, image_size) for i in ids.tolist()}
        assert kept.tolist() == [i for i, strip in expected.items() if strip is not None]
        for i, grow, (row0, col0, row1, col1) in zip(kept.tolist(), grows.tolist(), boxes.tolist()):
            assert (grow, (slice(row0, row1), slice(col0, col1))) == expected[i]
        subset = rng.choice(ids, size=len(ids) // 3, replace=False)
        sub_kept, _, sub_boxes = fragments.strips(subset, image_size)
        assert sub_kept.tolist() == [i for i in subset.tolist() if expected[i] is not None]
        assert np.array_equal(sub_boxes, boxes[np.searchsorted(kept, sub_kept)])


# --------------------------------------------------------------------- #
# Array-built table and one-scatter painter against their old loops
# --------------------------------------------------------------------- #
def reference_spans(start, end, max_length):
    """The ``np.linspace`` split of one edge range into spans."""
    length = end - start
    if length <= 0:
        return []
    n = max(1, int(np.ceil(length / max_length)))
    edges = np.linspace(start, end, n + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def reference_fragment_layout(layout, pixel_size, max_length):
    """``(rects, rows)``: the per-rectangle loop, one ``(shape, side, lo, hi,
    position)`` row per fragment id; zero-pixel rectangles are skipped."""
    rects, rows = [], []
    for rect in layout.shapes:
        col0, col1 = int(round(rect.x0 / pixel_size)), int(round(rect.x1 / pixel_size))
        row0, row1 = int(round(rect.y0 / pixel_size)), int(round(rect.y1 / pixel_size))
        if col1 <= col0 or row1 <= row0:
            continue
        s = len(rects)
        rects.append((row0, col0, row1, col1))
        for lo, hi in reference_spans(row0, row1, max_length):
            rows += [(s, LEFT, lo, hi, col0), (s, RIGHT, lo, hi, col1 - 1)]
        for lo, hi in reference_spans(col0, col1, max_length):
            rows += [(s, BOTTOM, lo, hi, row0), (s, TOP, lo, hi, row1 - 1)]
    return np.array(rects, dtype=np.int64).reshape(-1, 4), np.array(rows, dtype=np.int64).reshape(-1, 5)


def rough_layout(rng, size_nm=512.0, count=24):
    """Off-grid rectangles (some round to zero pixels, some sit on a half
    pixel, a few hang past the origin) of every length up to 40 px."""
    layout = Layout(bounds=Rect(0, 0, size_nm, size_nm))
    for k in range(count):
        x, y = (float(v) for v in rng.uniform(-20.0, size_nm - 40.0, size=2))
        w, h = (float(v) for v in rng.uniform(0.5, 320.0, size=2))
        if k % 5 == 0:
            w = float(rng.uniform(0.5, 3.9))          # rounds to zero pixels
        if k % 7 == 0:
            x, w = 8.0 * int(x // 8) + 4.0, 8.0 * int(w // 8 + 1) + 8.0   # half pixels
        layout.add(Rect(x, y, x + w, y + h))
    return layout


@pytest.mark.parametrize("seed", range(6))
def test_fragment_layout_matches_per_rectangle_loop(seed):
    rng = np.random.default_rng(seed)
    layout = rough_layout(rng)
    skipped = lengths = 0
    for pixel_size in (8.0, 5.0):
        for max_length in (1, 3, 7, 32, 1000):
            fragments = fragment_layout(layout, pixel_size, max_length)
            rects, rows = reference_fragment_layout(layout, pixel_size, max_length)
            assert fragments.rects.dtype == np.int64
            assert fragments.rects.tobytes() == rects.tobytes()
            columns = (fragments.shape, fragments.side, fragments.lo, fragments.hi, fragments.position)
            for column, expected in zip(columns, rows.T):
                assert column.dtype == np.int64
                assert column.tobytes() == expected.tobytes()
            skipped += len(layout.shapes) - len(rects)
            edges = np.concatenate([rects[:, 2] - rects[:, 0], rects[:, 3] - rects[:, 1]])
            lengths += int(np.sum(edges % max_length != 0))
    assert skipped > 0 and lengths > 0


class LoopPainter(MaskPainter):
    """The painter with its old strip loop: one slice update per strip."""

    def _add(self, grows, boxes, delta):
        for grow, (row0, col0, row1, col1) in zip(grows.tolist(), boxes.tolist()):
            self._counts[0 if grow else 1, row0:row1, col0:col1] += delta


@pytest.mark.parametrize("image_size", [64, 56])
@pytest.mark.parametrize("seed", range(4))
def test_mask_painter_matches_per_strip_loop(seed, image_size):
    """Equal int16 grow and trim counts and equal masks after every repaint,
    over strips clipped at the image border (a 56 px image also cuts the
    64 px layout's spans) and grow and trim strips that overlap."""
    rng = np.random.default_rng(seed)
    layout = random_layout(rng, count=12)
    for rect in random_layout(rng, count=4).shapes:
        layout.add(rect)
    fragments = fragment_layout(layout, 8.0, int(rng.integers(3, 12)))
    extra = [(30, 2, 33, 20), (50, 60, 70, 62)]
    painter, reference = MaskPainter(fragments, image_size, extra), LoopPainter(fragments, image_size, extra)
    clipped = overlaps = stacked = 0
    for step in range(30):
        previous = np.rint(fragments.offset)
        picks = rng.random(len(fragments)) < 0.4
        fragments.offset[picks] = rng.uniform(-12.0, 12.0, size=int(picks.sum()))
        if step % 6 == 5:
            fragments.offset[picks] = 0.0
        moved = np.flatnonzero(np.rint(fragments.offset) != previous)
        mask = build_mask(fragments, image_size, extra, painter=painter, moved=moved)
        expected = build_mask(fragments, image_size, extra, painter=reference, moved=moved)
        assert painter._counts.tobytes() == reference._counts.tobytes()
        assert mask.tobytes() == expected.tobytes()
        assert np.array_equal(painter.bits, mask != 0) and painter.bits.dtype == bool
        grow, trim = painter._counts
        overlaps += int(np.sum((grow > 0) & (trim > 0)))
        stacked += int(np.sum(grow > 1) + np.sum(trim > 1))
        ids, _, boxes = fragments.strips(np.arange(len(fragments)), image_size)
        area = np.prod(np.maximum(boxes[:, 2:] - boxes[:, :2], 0), axis=1)
        unclipped = np.abs(np.rint(fragments.offset[ids])) * (fragments.hi[ids] - fragments.lo[ids])
        clipped += int(np.sum((area > 0) & (area < unclipped)))
    assert clipped > 0 and overlaps > 0 and stacked > 0
    assert np.array_equal(mask, build_mask(fragments, image_size, extra))


# --------------------------------------------------------------------- #
# Degenerate layouts
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["empty", "zero_pixel", "corner_via"])
def test_degenerate_layouts_run_through_the_loop(simulator, name):
    size, shapes = {
        "empty": (512.0, []),
        # Every rectangle rounds to zero pixels at 8 nm (the 60 x 2 nm bar
        # still gets SRAFs).
        "zero_pixel": (
            512.0,
            [Rect(97, 97, 99, 140), Rect(200, 300, 260, 302), Rect(400, 400, 402, 402)],
        ),
        # A 64 nm via in the corner of the image.
        "corner_via": (1024.0, [Rect(0, 0, 64, 64)]),
    }[name]
    layout = Layout(bounds=Rect(0, 0, size, size), shapes=shapes)
    image_size = int(size / 8.0)
    fragments = fragment_layout(layout, 8.0)
    assert fragments.rects.shape == ((1, 4) if name == "corner_via" else (0, 4))
    assert len(fragments) == (4 if name == "corner_via" else 0)
    painter = MaskPainter(fragments, image_size)
    mask = build_mask(fragments, image_size)
    assert np.array_equal(build_mask(fragments, image_size, painter=painter), mask)
    assert mask.sum() == (64.0 if name == "corner_via" else 0.0)
    for resist in (np.zeros((image_size, image_size)), np.ones((image_size, image_size))):
        stats = measure_layout_epe(resist, fragments, 8.0, 24, skip_frozen=True)
        assert stats.values.shape == (len(fragments),) and stats.frozen_fragments == 0

    result = OPCEngine(simulator, OPCConfig(iterations=3, freeze_after=1)).correct(layout)
    values = [stats.values.tolist() for stats in result.epe_history]
    frozen = [stats.frozen_fragments for stats in result.epe_history]
    # The final masks the per-fragment loops produced.
    digest = hashlib.sha256(result.final_mask.tobytes()).hexdigest()[:16]
    assert digest == {
        "empty": "c35020473aed1b46",
        "zero_pixel": "90b5e32e465b98ae",
        "corner_via": "bdb8b13088430b61",
    }[name]
    if name == "corner_via":
        assert values == [[-4.0, -3.0, -4.0, -3.0], [-2.0, 0.0, -2.0, 0.0], [-2.0, -2.0]]
        assert frozen == [0, 0, 2]
        assert result.converged_epe_nm == 16.0
        assert result.dirty_history == [64, 1, 0]
        assert result.final_mask.sum() == 132.0
    else:
        assert values == [[], [], []] and frozen == [0, 0, 0]
        assert result.converged_epe_nm == 0.0
        assert result.dirty_history == [16, 0, 0]
        assert result.final_mask.sum() == (30.0 if name == "zero_pixel" else 0.0)
        assert result.target.sum() == (15.0 if name == "zero_pixel" else 0.0)
