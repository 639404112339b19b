"""Tests for edge fragmentation, mask construction and SRAF insertion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layout import (
    ICCAD2013_RULES,
    ISPD2019_RULES,
    Layout,
    Rect,
    generate_metal_layout,
    generate_via_layout,
)
from repro.opc import (
    MaskPainter,
    build_mask,
    fragment_layout,
    insert_srafs,
    sraf_rects_pixels,
)
from repro.opc.fragments import BOTTOM, LEFT, OUTWARD_NORMAL, RIGHT, TOP, _fragment_spans


def simple_layout(size=512.0):
    layout = Layout(bounds=Rect(0, 0, size, size))
    layout.add(Rect(100, 100, 164, 164))
    layout.add(Rect(300, 100, 364, 420))
    return layout


def test_fragment_spans_cover_range_without_overlap():
    ranges = [(0, 100), (7, 40)]
    edge, lo, hi = _fragment_spans(np.array([0, 7]), np.array([100, 40]), 32)
    assert edge.tolist() == sorted(edge.tolist())
    for e, (start, end) in enumerate(ranges):
        spans = list(zip(lo[edge == e].tolist(), hi[edge == e].tolist()))
        assert spans[0][0] == start and spans[-1][1] == end
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0
        assert all(b - a <= 34 for a, b in spans)


def test_fragment_spans_empty_for_degenerate_range():
    edge, lo, hi = _fragment_spans(np.array([5, 0]), np.array([5, 3]), 32)
    assert (edge.tolist(), lo.tolist(), hi.tolist()) == ([1], [0], [3])


def test_fragment_layout_produces_four_sides():
    fragments = fragment_layout(simple_layout(), pixel_size=4.0, max_fragment_length=100)
    assert len(fragments.rects) == 2
    sides = set(fragments.side[fragments.shape == 0].tolist())
    assert sides == {LEFT, RIGHT, TOP, BOTTOM}


def test_long_edges_get_multiple_fragments():
    fragments = fragment_layout(simple_layout(), pixel_size=4.0, max_fragment_length=20)
    # Shape 1 is the 64 x 320 nm wire -> 80 pixels tall.
    left_fragments = (fragments.shape == 1) & (fragments.side == LEFT)
    assert left_fragments.sum() == 4


def test_control_points_lie_on_drawn_edges():
    fragments = fragment_layout(simple_layout(), pixel_size=4.0)
    row0, col0, row1, col1 = fragments.rects[0]
    ids = np.flatnonzero(fragments.shape == 0)
    rows, cols = fragments.control_points(ids)
    for side, r, c in zip(fragments.side[ids], rows, cols):
        assert row0 <= r <= row1 - 1 or side in (LEFT, RIGHT)
        if side == LEFT:
            assert c == col0
        if side == RIGHT:
            assert c == col1 - 1


def test_build_mask_zero_offsets_matches_rasterization():
    from repro.layout import rasterize

    layout = simple_layout()
    fragments = fragment_layout(layout, pixel_size=4.0)
    mask = build_mask(fragments, image_size=128)
    np.testing.assert_allclose(mask, rasterize(layout, pixel_size=4.0, image_size=128))


def test_build_mask_positive_offset_grows_shape():
    layout = simple_layout()
    fragments = fragment_layout(layout, pixel_size=4.0)
    base = build_mask(fragments, 128).sum()
    fragments.offset[fragments.shape == 0] = 2.0
    grown = build_mask(fragments, 128).sum()
    assert grown > base


def test_build_mask_negative_offset_shrinks_shape():
    layout = simple_layout()
    fragments = fragment_layout(layout, pixel_size=4.0)
    base = build_mask(fragments, 128).sum()
    fragments.offset[fragments.shape == 0] = -2.0
    shrunk = build_mask(fragments, 128).sum()
    assert shrunk < base


def test_build_mask_adds_extra_rects():
    fragments = fragment_layout(simple_layout(), pixel_size=4.0)
    mask = build_mask(fragments, 128, extra_rects=[(0, 0, 4, 4)])
    assert mask[:4, :4].sum() == 16


def crowded_layout():
    """Shapes a few pixels apart (grows and trims overlap across shapes) and
    shapes on the image border (strips clipped at the edge), 8 nm pixels."""
    layout = Layout(bounds=Rect(0, 0, 512, 512))
    for rect in (
        Rect(0, 40, 96, 120),       # left border
        Rect(120, 40, 200, 300),    # 3 px from the first
        Rect(216, 64, 400, 120),    # 2 px from the second
        Rect(216, 136, 296, 280),
        Rect(440, 0, 512, 96),      # bottom-right corner
        Rect(300, 440, 512, 512),   # top-right corner
        Rect(40, 400, 104, 512),    # top border
    ):
        layout.add(rect)
    return layout


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mask_painter_matches_build_mask_over_random_moves(seed):
    rng = np.random.default_rng(seed)
    fragments = fragment_layout(crowded_layout(), pixel_size=8.0, max_fragment_length=8)
    image_size = 64
    # SRAF-like boxes, some over shapes, one past the border.
    extra = [(30, 2, 33, 20), (0, 26, 12, 28), (50, 60, 70, 62)]
    painter = MaskPainter(fragments, image_size, extra)
    ids = np.arange(len(fragments))
    painted = build_mask(fragments, image_size, extra, painter=painter)
    assert np.array_equal(painted, build_mask(fragments, image_size, extra))
    for step in range(40):
        picks = rng.choice(len(ids), size=int(rng.integers(1, 12)), replace=False)
        moved = []
        for k in picks.tolist():
            before = int(round(fragments.offset[k]))
            # Every fifth step sends the picked fragments back to zero.
            fragments.offset[k] = 0.0 if step % 5 == 4 else float(rng.uniform(-12.0, 12.0))
            if int(round(fragments.offset[k])) != before:
                moved.append(k)
        painted = build_mask(fragments, image_size, extra, painter=painter, moved=moved)
        assert np.array_equal(painted, build_mask(fragments, image_size, extra))
        assert painted.dtype == np.float64
    fragments.offset[:] = 0.0
    painted = build_mask(fragments, image_size, extra, painter=painter, moved=ids)
    assert np.array_equal(painted, build_mask(fragments, image_size, extra))


def test_mask_painter_returns_fresh_arrays():
    fragments = fragment_layout(simple_layout(), pixel_size=8.0)
    painter = MaskPainter(fragments, 64)
    first = build_mask(fragments, 64, painter=painter)
    first[:] = 0.0
    assert np.array_equal(build_mask(fragments, 64, painter=painter), build_mask(fragments, 64))


def test_build_mask_rejects_a_painter_of_other_shapes():
    fragments = fragment_layout(simple_layout(), pixel_size=8.0)
    painter = MaskPainter(fragments, 64)
    with pytest.raises(ValueError):
        build_mask(fragment_layout(simple_layout(), pixel_size=8.0), 64, painter=painter)
    with pytest.raises(ValueError):
        build_mask(fragments, 32, painter=painter)


def test_outward_normals_point_away_from_interior():
    fragments = fragment_layout(simple_layout(), pixel_size=4.0)
    row0, col0, row1, col1 = fragments.rects[0]
    centre = ((row0 + row1) / 2, (col0 + col1) / 2)
    ids = np.flatnonzero(fragments.shape == 0)
    rows, cols = fragments.control_points(ids)
    for side, r, c in zip(fragments.side[ids], rows, cols):
        dr, dc = OUTWARD_NORMAL[side]
        # Moving along the normal must increase the distance from the centre.
        before = (r - centre[0]) ** 2 + (c - centre[1]) ** 2
        after = (r + dr - centre[0]) ** 2 + (c + dc - centre[1]) ** 2
        assert after > before


# --------------------------------------------------------------------- #
# SRAF insertion
# --------------------------------------------------------------------- #
def test_srafs_surround_isolated_feature():
    layout = Layout(bounds=Rect(0, 0, 1000, 1000), shapes=[Rect(450, 450, 550, 550)])
    srafs = insert_srafs(layout)
    assert len(srafs) == 4


def test_srafs_do_not_touch_main_features():
    layout = Layout(bounds=Rect(0, 0, 1000, 1000), shapes=[Rect(450, 450, 550, 550)])
    for sraf in insert_srafs(layout, min_clearance=40.0):
        grown = sraf.expanded(39.9)
        assert not any(grown.intersects(shape) for shape in layout.shapes)


def test_srafs_skipped_when_no_room():
    layout = Layout(bounds=Rect(0, 0, 200, 200), shapes=[Rect(50, 50, 150, 150)])
    srafs = insert_srafs(layout, sraf_distance=90.0)
    # The bars would leave the layout bounds on every side.
    assert srafs == []


def test_srafs_do_not_overlap_each_other():
    layout = Layout(
        bounds=Rect(0, 0, 1200, 1200),
        shapes=[Rect(300, 300, 400, 400), Rect(700, 300, 800, 400)],
    )
    srafs = insert_srafs(layout)
    for i, a in enumerate(srafs):
        for b in srafs[i + 1 :]:
            assert not a.intersects(b)


def test_sraf_rects_pixels_rounding():
    boxes = sraf_rects_pixels([Rect(10, 20, 34, 28)], pixel_size=8.0)
    assert boxes == [(2, 1, 4, 4)]
    # Degenerate-thin SRAFs still occupy at least one pixel row/column.
    thin = sraf_rects_pixels([Rect(10, 10, 12, 50)], pixel_size=8.0)
    assert thin[0][3] - thin[0][1] >= 1


def pairwise_srafs(
    layout, sraf_width=24.0, sraf_distance=90.0, sraf_length_margin=10.0, min_clearance=40.0
):
    """Reference: the candidate-by-candidate ``Rect.intersects`` scan."""
    srafs = []
    for rect in layout.shapes:
        length_x = rect.width - 2.0 * sraf_length_margin
        length_y = rect.height - 2.0 * sraf_length_margin
        candidates = []
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
        for candidate in candidates:
            if not layout.bounds.contains_rect(candidate):
                continue
            grown = candidate.expanded(min_clearance)
            if any(grown.intersects(other) for other in layout.shapes):
                continue
            if any(grown.intersects(existing) for existing in srafs):
                continue
            srafs.append(candidate)
    return srafs


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "params",
    [
        {},
        {"min_clearance": 10.0},
        {"sraf_distance": 40.0, "min_clearance": 5.0, "sraf_width": 16.0},
    ],
)
def test_insert_srafs_matches_pairwise_scan(seed, params):
    rng = np.random.default_rng(seed)
    layouts = [
        generate_via_layout(ISPD2019_RULES, rng, tile_size=2048.0, density_scale=1.5),
        generate_metal_layout(ICCAD2013_RULES, rng, tile_size=1024.0),
        crowded_layout(),
    ]
    for layout in layouts:
        assert insert_srafs(layout, **params) == pairwise_srafs(layout, **params)


def test_insert_srafs_of_an_empty_layout():
    assert insert_srafs(Layout(bounds=Rect(0, 0, 512, 512))) == []
