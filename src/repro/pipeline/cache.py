"""The incremental re-simulation state of the OPC loop.

The OPC loop simulates the same mask once per iteration, each time with a
few fragments moved.  :class:`IncrementalState` makes that cost
proportional to the *perturbed* area instead of the mask area: it is the
dirty-tile ledger of the patched re-simulation plan
(:meth:`~repro.pipeline.InferencePipeline.predict_patched`) over the golden
simulator's aerial image.  The mask is viewed through the half-overlapping
:class:`~repro.layout.tiling.TileSpec` grid of paper §3.2; comparing each
candidate window's pixels with a copy of the last simulated mask identifies
which tile windows changed since the previous call, only those windows are
re-simulated, and their *ownership regions* (the disjoint partition of the
image induced by the scan-order core stitch of
:func:`~repro.layout.tiling.stitch_cores`) are written back into a cached
full-image aerial map.

Exactness of the patched plan
-----------------------------
The golden simulator's aerial image is a linear convolution with kernels of
finite support ``s`` (:mod:`repro.litho.hopkins` zero-pads every FFT to
``next_fast_len(n + s - 1)``), so an output pixel depends only on mask pixels
within the influence radius ``r = (s - 1) // 2``.  A tile window of size ``T``
therefore reproduces the whole-mask aerial exactly on its core region more
than ``r`` pixels from any interior window edge.  With the core margin fixed
at ``T // 4`` (the largest value for which the half-overlapping grid's cores
partition the image) and ``T >= 4r``, patching the dirty windows' ownership
regions is *exact* up to floating-point summation order; the resist threshold
comparison is pointwise, so patched resist images match whole-mask
re-simulation (pinned by the equivalence suites in
``tests/pipeline/test_cache.py`` / ``tests/opc/test_incremental.py``).

Hybrid cost model
-----------------
Windowed FFTs are smaller but there are many of them: re-simulating all nine
windows of a 128 px mask costs ~3x one whole-mask FFT.  ``IncrementalState``
therefore carries per-call cost estimates and the pipeline falls back to one
native whole-image refresh whenever the dirty set is large (or on the first
call), so the incremental plan is never materially slower than the plain one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..layout.tiling import TileSpec

__all__ = [
    "IncrementalCounters",
    "IncrementalState",
    "choose_patch_tile",
    "ownership_slices",
]


@dataclass
class IncrementalCounters:
    """Work ledger of an incremental re-simulation session."""

    full_refreshes: int = 0       # native whole-image simulations (incl. first call)
    patched_calls: int = 0        # calls served by dirty-window patching
    clean_calls: int = 0          # calls where no tile changed (develop-only)
    tiles_simulated: int = 0      # tile windows actually re-simulated
    tiles_skipped: int = 0        # tile windows skipped as clean on patched calls

    def tile_equivalents(self, n_tiles: int) -> int:
        """Total work in units of tile simulations (full refresh = ``n_tiles``)."""
        return self.tiles_simulated + self.full_refreshes * n_tiles


def choose_patch_tile(image_size: int, influence_radius: int) -> int:
    """Smallest patch window ``T`` with exactly-partitioning cores.

    A window's core margin is ``T // 4`` (the largest margin for which the
    half-overlapping grid's cores tile the image under the scan-order
    semantics of :func:`~repro.layout.tiling.stitch_cores`); exact windowed
    convolution needs that margin to cover the optical influence radius, so
    ``T >= 4 * influence_radius``.  ``T`` must also divide the image size and
    be even (half-overlap stride).  When no proper divisor qualifies, the
    whole image is one window — the patched plan then degenerates to
    skip-if-unchanged, which is still exact.
    """
    for size in range(max(4 * influence_radius, 2), image_size):
        if size % 2 == 0 and image_size % size == 0:
            return size
    return image_size


def ownership_slices(
    specs: list[TileSpec], shape: tuple[int, int], margin: int
) -> list[tuple[tuple[slice, slice], tuple[slice, slice]]]:
    """Disjoint per-tile ownership regions equal to the scan-order core stitch.

    Returns ``(tile_local, output)`` slice pairs such that writing
    ``output[out] = tile[local]`` for *any subset* of tiles yields exactly the
    pixels :func:`~repro.layout.tiling.stitch_cores` would assign to those
    tiles.  ``stitch_cores`` writes cores in scan order (later tiles win), and
    its core boundaries are separable per axis, so ownership along each axis
    is: the first tile owns from the image border, every tile owns up to
    ``stride + margin`` into itself (where the next tile's core takes over),
    and the last tile owns to the opposite border.  This partition matches the
    scan-order overwrite exactly iff ``margin <= size // 4``, which the
    callers guarantee (:func:`choose_patch_tile`).
    """
    h, w = shape
    if not specs:
        return []
    size = specs[0].size
    if margin > size // 4 and len(specs) > 1:
        raise ValueError(
            f"ownership regions need margin <= tile_size // 4 "
            f"(got margin {margin} for tile size {size})"
        )
    n_rows = max(s.row for s in specs) + 1
    n_cols = max(s.col for s in specs) + 1
    stride = size // 2

    def axis_own(index: int, count: int) -> tuple[int, int]:
        lo = 0 if index == 0 else margin
        hi = size if index == count - 1 else stride + margin
        return lo, hi

    out: list[tuple[tuple[slice, slice], tuple[slice, slice]]] = []
    for spec in specs:
        y_lo, y_hi = axis_own(spec.row, n_rows)
        x_lo, x_hi = axis_own(spec.col, n_cols)
        local = (slice(y_lo, y_hi), slice(x_lo, x_hi))
        output = (
            slice(spec.y0 + y_lo, spec.y0 + y_hi),
            slice(spec.x0 + x_lo, spec.x0 + x_hi),
        )
        out.append((local, output))
    return out


def _fft_cost(size: int, support: int) -> float:
    """Relative cost of one zero-padded 2-D FFT convolution at this size."""
    n = size + support - 1
    return float(n * n) * max(np.log2(n), 1.0)


@dataclass
class IncrementalState:
    """Dirty-tile ledger + cached full-image aerial map for patched re-simulation.

    Built by :meth:`repro.pipeline.InferencePipeline.incremental_state` and
    threaded through successive :meth:`~repro.pipeline.InferencePipeline.predict_patched`
    calls.  ``cached_map`` is the full-image aerial intensity of the last
    call; ``last_mask`` is a copy of the last simulated mask, and dirty
    windows are found by exact comparison of their pixels with it.
    """

    shape: tuple[int, int]
    tile_size: int
    specs: list[TileSpec]
    margin: int                           # core margin of every window
    support: int = 1                      # kernel support (cost model)
    last_mask: np.ndarray | None = field(default=None, repr=False)
    cached_map: np.ndarray | None = None
    counters: IncrementalCounters = field(default_factory=IncrementalCounters)
    last_stats: object | None = None      # PipelineStats of the latest patched call

    @property
    def n_tiles(self) -> int:
        return len(self.specs)

    def ownership(self) -> list[tuple[tuple[slice, slice], tuple[slice, slice]]]:
        return ownership_slices(self.specs, self.shape, self.margin)

    def window(self, index: int) -> tuple[slice, slice]:
        """Pixel slices of tile window ``index`` in the full mask."""
        spec, t = self.specs[index], self.tile_size
        return slice(spec.y0, spec.y0 + t), slice(spec.x0, spec.x0 + t)

    def dirty_windows(self, mask: np.ndarray, candidates: list[int] | None) -> list[int]:
        """Tile indices whose window content changed since the last call.

        ``candidates`` (from the fragment->tile index) bounds the windows that
        need comparing; windows outside it are trusted to be unchanged.
        ``None`` checks every window; with no recorded mask yet, every window
        is dirty.
        """
        last = self.last_mask
        if last is None:
            return list(range(self.n_tiles))
        indices = sorted(set(candidates)) if candidates is not None else range(self.n_tiles)
        dirty = []
        for i in indices:
            window = self.window(i)
            if not np.array_equal(mask[window], last[window]):
                dirty.append(i)
        return dirty

    def prefer_native(self, dirty_count: int) -> bool:
        """Hybrid cost model: is a native whole-image refresh cheaper?

        The native path is one big zero-padded FFT and the patched path is
        ``dirty_count`` small ones.
        """
        if self.n_tiles == 1:
            return dirty_count >= self.n_tiles
        native = _fft_cost(max(self.shape), self.support)
        window = _fft_cost(self.tile_size, self.support)
        return dirty_count * window >= native

    def record(self, mask: np.ndarray, dirty: list[int]) -> None:
        """Remember the pixels of the windows simulated for ``mask``.

        The very first call copies the whole mask; later calls copy only the
        ``dirty`` windows' pixels.  With sound candidates every changed pixel
        lies in a dirty window, so ``last_mask`` equals ``mask`` afterwards;
        otherwise a trusted window keeps its old pixels except where it
        overlaps a dirty one.
        """
        if self.last_mask is None:
            self.last_mask = np.array(mask, dtype=np.float64, copy=True)
            return
        for i in dirty:
            window = self.window(i)
            self.last_mask[window] = mask[window]
