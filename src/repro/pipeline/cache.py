"""The incremental re-simulation state of the OPC loop.

The OPC loop simulates the same mask once per iteration, each time with a
few fragments moved.  :class:`IncrementalState` makes such a call cost what
the edit touches instead of the mask area: it caches the golden simulator's
SOCS field planes and aerial image of the last simulated mask, and
:meth:`~repro.pipeline.InferencePipeline.predict_patched` turns the next
mask's difference into field deltas.

Linearity
---------
The aerial image is ``I = sum_j |P_j|^2`` over the packed field planes
``P_j = h_j (x) M`` of :mod:`repro.litho.hopkins`, and each plane is linear
in the mask: ``P_j(M + dM) = P_j(M) + h_j (x) dM``.  The cached planes are
the whole-mask simulation's own inverse-FFT output, kept at its FFT layout
(image pixel ``(y, x)`` at ``[:, y + r, x + r]``, ``r = (s - 1) // 2``), so
a refresh copies no plane.  The state views the mask on a fixed grid of
:data:`BLOCK` px blocks, and the planes' block grid is a view of that
buffer at offset ``r``.  A call takes ``dM = mask - last_mask`` on the
blocks it changed, convolves every dirty block's delta with the kernels in
one batched FFT of ``next_fast_len(BLOCK + s - 1)`` px (48 for support 31)
and adds the ``(BLOCK + s - 1)^2`` result into the cached planes ``r`` px
up and left of the block, in fixed block order
(:func:`~repro.litho.hopkins.add_field_deltas`).  A real mask gives a real
``dM``, so the packed ``r_2j + i r_2j+1`` planes and the defocused ones stay
valid.  Only blocks within ``r`` of a dirty block see a changed field, and
only they recompute ``sum_j |P_j|^2 * dose / clear_field``.  Masks need
not be square.

Dirty blocks
------------
:meth:`IncrementalState.dirty_blocks` compares the mask with ``last_mask``.
A caller that knows where its edit can be, as the OPC loop's mask painter
knows the strips it repainted, passes those flat pixel indices as
candidates, and only they are compared; a repaint can restore the old
pixels, so a candidate is dirty only if its pixel really changed.  Without
candidates the whole mask is compared.  A call whose mask has not changed
is a clean call (:meth:`IncrementalState.record_clean`): the OPC loop
records it without calling the pipeline at all.

The patched aerial equals whole-mask simulation up to floating-point
round-off (the delta FFTs sum in another order); it stays within 1e-12 of
clear field over successive edits (``tests/pipeline/test_cache.py``).  The
resist threshold is pointwise, so the OPC loop matches the always-full loop
bit for bit (``tests/opc/test_incremental.py``).  Full-refresh and clean
calls return :meth:`~repro.pipeline.InferencePipeline.predict`'s bits.

Block-cost rule
---------------
A dirty block costs a forward and an inverse FFT of its planes at the block
size, the stamp additions and the intensity of its neighbours; a full
refresh costs them once at the whole-mask size.  :meth:`prefer_refresh`
estimates both as ``n^2 log2 n`` per FFT side ``n`` and weighs a block by
the measured :data:`BLOCK_COST`, so the first call and heavy edits run as
one full refresh (:meth:`~repro.pipeline.executors.SimulatorExecutor.run_aerial`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len

__all__ = ["BLOCK", "BLOCK_COST", "IncrementalCounters", "IncrementalState"]

#: Side of the mask blocks the dirty set is tracked on (pixels).
BLOCK = 16
#: Time of patching one dirty block over its FFT-cost estimate, in units of
#: a full refresh's time over its own.  It puts the break-even at ~40
#: blocks where the bare FFT costs put it at 53.  Timed over 16 ``opc_loop``
#: corrections (256 px, 10 kernels, support 31, compute team of two on a
#: 2-vCPU host): a full refresh took ~8 ms and a patch ~0.27 ms per dirty
#: block, a break-even of ~30.  Only 7 of 102 patches fell between 30 and 40
#: dirty blocks, each ~1 ms slower than a refresh, which is too little to
#: show in a correction, so the constant is left where it was.
BLOCK_COST = 1.3


@dataclass
class IncrementalCounters:
    """Work ledger of an incremental re-simulation session."""

    full_refreshes: int = 0       # whole-mask simulations (incl. first call)
    patched_calls: int = 0        # calls served by field-delta patches
    clean_calls: int = 0          # calls where no block changed (develop-only)
    tiles_simulated: int = 0      # dirty blocks patched
    tiles_skipped: int = 0        # clean blocks of patched and clean calls

    def tile_equivalents(self, n_tiles: int) -> int:
        """Total work in units of block patches (full refresh = ``n_tiles``)."""
        return self.tiles_simulated + self.full_refreshes * n_tiles


def _fft_cost(size: int) -> float:
    """Relative cost of one 2-D FFT of side ``size``."""
    return float(size * size) * max(math.log2(size), 1.0)


@dataclass
class IncrementalState:
    """Cached field planes and aerial image for field-delta patching.

    Built by :meth:`repro.pipeline.InferencePipeline.incremental_state` and
    threaded through successive
    :meth:`~repro.pipeline.InferencePipeline.predict_patched` calls.
    ``fields`` holds the planes of ``last_mask``, a copy of the last
    simulated mask, at the simulator's FFT layout (pixel ``(y, x)`` at
    ``[:, y + radius, x + radius]``; the refresh's inverse FFTs run in it),
    and ``aerial`` (the block-padded mask) its aerial intensity; ``engine``
    is the simulator that filled them, and no other may patch them.
    :meth:`refresh` and :meth:`patch` update all three through the simulator
    executor's hooks; the block layout is known to this class alone.
    """

    shape: tuple[int, int]
    radius: int                           # optical influence radius (pixels)
    planes: int                           # packed SOCS field planes
    engine: object | None = None          # simulator of the cached planes
    last_mask: np.ndarray | None = field(default=None, repr=False)
    fields: np.ndarray | None = field(default=None, repr=False)
    aerial: np.ndarray | None = field(default=None, repr=False)
    counters: IncrementalCounters = field(default_factory=IncrementalCounters)
    last_stats: object | None = None      # PipelineStats of the latest patched call

    @property
    def grid(self) -> tuple[int, int]:
        """Block rows and columns; edge blocks may overhang the mask."""
        return -(-self.shape[0] // BLOCK), -(-self.shape[1] // BLOCK)

    @property
    def n_tiles(self) -> int:
        """Blocks in the grid: what a full refresh counts in the ledger."""
        rows, cols = self.grid
        return rows * cols

    @property
    def cached_map(self) -> np.ndarray | None:
        """The cached aerial image of ``last_mask`` (``None`` before a refresh)."""
        if self.aerial is None:
            return None
        return self.aerial[: self.shape[0], : self.shape[1]]

    def dirty_blocks(self, mask: np.ndarray, candidates: np.ndarray | None = None) -> np.ndarray:
        """Row-major indices of the blocks whose pixels differ from ``last_mask``.

        ``candidates`` are flat pixel indices (``row * width + col``) that
        cover every pixel where ``mask`` may differ from ``last_mask``, such
        as the strips a :class:`~repro.opc.fragments.MaskPainter` repainted
        since the last call.  Only those pixels are compared, since a repaint
        can restore the old pixels; without them the whole mask is.
        """
        if self.last_mask is None:
            return np.arange(self.n_tiles)
        if candidates is not None:
            differ = mask.reshape(-1)[candidates] != self.last_mask.reshape(-1)[candidates]
            rows, cols = np.divmod(candidates[differ], self.shape[1])
            blocks = np.zeros(self.n_tiles, dtype=bool)
            blocks[rows // BLOCK * self.grid[1] + cols // BLOCK] = True
            return np.flatnonzero(blocks)
        starts = [np.arange(0, n, BLOCK) for n in self.shape]
        changed = mask != self.last_mask
        changed = np.logical_or.reduceat(changed, starts[0], axis=0)
        changed = np.logical_or.reduceat(changed, starts[1], axis=1)
        return np.flatnonzero(changed)

    def record_clean(self) -> None:
        """Count a call whose mask equals ``last_mask``: nothing is simulated
        and every block is skipped."""
        self.counters.clean_calls += 1
        self.counters.tiles_skipped += self.n_tiles

    def prefer_refresh(self, dirty_count: int) -> bool:
        """Block-cost rule: is one full refresh cheaper than ``dirty_count`` patches?"""
        span = BLOCK + 2 * self.radius
        full = _fft_cost(next_fast_len(max(self.shape) + 2 * self.radius))
        return dirty_count * BLOCK_COST * _fft_cost(next_fast_len(span)) >= full

    def refresh(self, engine, mask: np.ndarray) -> None:
        """Rebuild the planes and aerial image from the whole mask with
        ``engine.run_aerial``, allocating the buffers first: the planes at
        ``engine.fft_shape``, grown where the block grid at offset
        ``radius`` would overhang it (kernels narrower than 31 px)."""
        h, w = self.shape
        if self.aerial is None:
            rows, cols = self.grid
            fft_h, fft_w = engine.fft_shape(self.shape)
            reach = self.radius + rows * BLOCK, self.radius + cols * BLOCK
            self.fields = np.zeros(
                (self.planes, max(fft_h, reach[0]), max(fft_w, reach[1])), dtype=np.complex128
            )
            self.aerial = np.zeros((rows * BLOCK, cols * BLOCK), dtype=np.float64)
            self.last_mask = np.zeros((h, w), dtype=np.float64)
        self.aerial[:h, :w] = engine.run_aerial(mask[None, None], fields=self.fields[None])[0, 0]
        self.engine = engine.simulator
        self.last_mask[...] = mask

    def patch(self, engine, mask: np.ndarray, dirty: np.ndarray) -> None:
        """Add the ``dirty`` blocks' field deltas with ``engine.patch_fields``,
        then recompute the intensity of every block they reach."""
        engine.patch_fields(self.fields, *self._deltas(mask, dirty))
        rows, cols = self._reach(dirty)
        grid = self.fields[:, self.radius :, self.radius :]
        reached = self._blocks(grid)[:, rows, :, cols, :]
        self._blocks(self.aerial)[rows, :, cols, :] = engine.aerial_of_fields(reached)
        self.last_mask[...] = mask

    def _deltas(self, mask: np.ndarray, dirty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``mask - last_mask`` on the ``dirty`` blocks, ``(n, BLOCK, BLOCK)``
        zero-padded past the mask edge, and the blocks' ``(y, x)`` origins."""
        cols = self.grid[1]
        origins = np.stack([dirty // cols, dirty % cols], axis=1) * BLOCK
        deltas = np.zeros((dirty.size, BLOCK, BLOCK))
        for delta, (y, x) in zip(deltas, origins.tolist()):
            window = np.s_[y : y + BLOCK, x : x + BLOCK]
            block = mask[window]
            np.subtract(block, self.last_mask[window], out=delta[: block.shape[0], : block.shape[1]])
        return deltas, origins

    def _reach(self, dirty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block rows and columns within ``radius`` pixels of a dirty block."""
        rows, cols = self.grid
        halo = -(-self.radius // BLOCK)
        marked = np.zeros((rows + 2 * halo, cols + 2 * halo), dtype=bool)
        marked[halo : halo + rows, halo : halo + cols].flat[dirty] = True
        window = 2 * halo + 1
        return np.nonzero(sliding_window_view(marked, (window, window)).any(axis=(2, 3)))

    def _blocks(self, array: np.ndarray) -> np.ndarray:
        """``(..., rows, BLOCK, cols, BLOCK)`` view of the block grid at the
        top-left of ``array``."""
        rows, cols = self.grid
        grid = array[..., : rows * BLOCK, : cols * BLOCK]
        return grid.reshape(*array.shape[:-2], rows, BLOCK, cols, BLOCK)
