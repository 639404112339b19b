"""Iterative edge-based OPC engine.

The engine reproduces the mask-correction loop that generated the paper's
training masks and the 24-iteration snapshots of Figure 8: fragment the target
edges, simulate the current mask with the golden simulator, measure the edge
placement error at every fragment and move each fragment against its error.

Incremental re-simulation
-------------------------
Each move step perturbs a handful of fragment offsets, so most of the mask —
and, by the finite optical influence radius, most of the aerial image — is
unchanged between iterations.  With ``incremental`` enabled (the default) the
loop runs through :meth:`repro.pipeline.InferencePipeline.predict_patched`:
a static fragment->tile index (:class:`~repro.opc.fragments.FragmentTileIndex`)
narrows the windows a move step can have touched, a pixel comparison with the
last simulated mask confirms the actually-dirty ones, and only those are
re-simulated — their ownership regions spliced into a cached full-image
aerial.  A hybrid cost model falls back to one native whole-mask refresh when
the dirty set is large (early iterations), so the incremental loop never
loses materially to the plain one; the savings grow as fragments converge —
especially with ``freeze_after``, which is what actually collapses the dirty
set (a converged fragment otherwise keeps jittering across the
pixel-rounding boundary and keeps its windows dirty forever).

The mask itself is painted incrementally in both loops
(:class:`~repro.opc.fragments.MaskPainter`): each iteration repaints only the
fragments the previous move step moved, bit-identical to painting the whole
layout with :func:`~repro.opc.fragments.build_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..layout.geometry import Layout
from ..layout.rasterize import rasterize
from ..litho.simulator import LithoSimulator
from ..pipeline import ExecutionConfig, IncrementalCounters, InferencePipeline
from .epe import EPEStatistics, measure_layout_epe
from .fragments import (
    FragmentedShape,
    FragmentTileIndex,
    MaskPainter,
    build_mask,
    fragment_layout,
)
from .sraf import insert_srafs, sraf_rects_pixels

__all__ = [
    "MaskHistory",
    "OPCConfig",
    "OPCResult",
    "OPCEngine",
    "rule_based_retarget",
]


@dataclass(frozen=True)
class OPCConfig:
    """Tuning knobs of the OPC engine."""

    iterations: int = 12
    gain: float = 0.5                 # fraction of the measured EPE corrected per iteration
    max_step: float = 3.0             # max fragment movement per iteration (pixels)
    max_offset: float = 12.0          # max total fragment offset (pixels)
    max_fragment_length: int = 32     # pixels
    use_srafs: bool = True
    epe_search_range: int = 24        # pixels
    record_history: bool = True
    #: Execution document for the simulation pipeline
    #: (:class:`repro.pipeline.ExecutionConfig`): workers, BLAS threads,
    #: result cache, supervision.  OPC is the canonical repeated-call
    #: workload — the iterate-simulate-measure loop calls the simulator once
    #: per iteration on same-shaped masks, so a pooled run maps its
    #: shared-memory ring once and reuses it for the whole correction.
    execution: "ExecutionConfig | None" = None
    #: Incremental re-simulation: track dirty tile windows per iteration and
    #: re-simulate only those (:meth:`InferencePipeline.predict_patched`),
    #: with a native whole-mask fallback when the dirty set is large.  The
    #: result matches the plain loop (same ``final_mask``, same
    #: ``epe_history``).  ``False`` restores the always-full simulation loop.
    incremental: bool = True
    #: Freeze a fragment once |EPE| stayed within ``freeze_tolerance`` for
    #: this many consecutive iterations: it stops being measured and never
    #: moves again, shrinking both the EPE walk and the dirty-tile set as the
    #: mask converges.  Default ``None`` (off) — freezing changes the
    #: correction dynamics slightly, so the Figure 8 numbers are produced
    #: with the unfrozen loop.
    freeze_after: int | None = None
    #: |EPE| tolerance (in pixels) a fragment must hold to count as stable
    #: for ``freeze_after``.
    freeze_tolerance: float = 1.0


class MaskHistory:
    """List-like storage of binary mask snapshots, bit-packed via ``np.packbits``.

    The OPC loop records one full mask per iteration; stored as ``float64``
    images a 24-iteration 128 px run holds ~3.3 MB of redundant 0.0/1.0
    planes.  Binary snapshots are packed to one bit per pixel (64x smaller)
    and lazily unpacked — ``history[i]``, slices and iteration all return the
    original ``float64`` arrays bit-for-bit.  Non-binary snapshots (never
    produced by :func:`~repro.opc.fragments.build_mask`, but accepted for
    robustness) are kept raw.
    """

    def __init__(self, masks=None) -> None:
        self._entries: list[tuple] = []
        for mask in masks or []:
            self.append(mask)

    def append(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask)
        bits = mask != 0
        if np.array_equal(bits.astype(mask.dtype), mask):
            self._entries.append(("packed", np.packbits(bits, axis=None), mask.shape, mask.dtype))
        else:
            self._entries.append(("raw", mask.copy()))

    def _unpack(self, entry: tuple) -> np.ndarray:
        if entry[0] == "raw":
            return entry[1].copy()
        _, packed, shape, dtype = entry
        count = int(np.prod(shape))
        return np.unpackbits(packed, count=count).reshape(shape).astype(dtype)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._unpack(entry) for entry in self._entries[index]]
        return self._unpack(self._entries[index])

    def __iter__(self):
        return (self._unpack(entry) for entry in self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, MaskHistory):
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(np.array_equal(mine, theirs) for mine, theirs in zip(self, other))

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored (packed) snapshots."""
        return sum(
            entry[1].nbytes for entry in self._entries
        )


@dataclass
class OPCResult:
    """Outcome of an OPC run."""

    final_mask: np.ndarray
    target: np.ndarray
    mask_history: MaskHistory = field(default_factory=MaskHistory)
    epe_history: list[EPEStatistics] = field(default_factory=list)
    #: Work ledger of the incremental plan (``None`` when it was disabled).
    counters: IncrementalCounters | None = None
    #: Tile-simulation equivalents spent per iteration (full refresh counts
    #: as ``n_tiles``); empty when the incremental plan was disabled.
    dirty_history: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.epe_history)

    @property
    def converged_epe_nm(self) -> float:
        return self.epe_history[-1].mean_abs_nm if self.epe_history else float("nan")


def rule_based_retarget(layout: Layout, bias: float = 20.0) -> Layout:
    """Cheap one-shot OPC: grow every shape by a constant bias (nm per side).

    Used by the dataset builders when a full iterative OPC run per tile would
    be too slow; the bias value approximates the average correction the
    iterative engine converges to for the default optical settings.
    """
    retargeted = Layout(bounds=layout.bounds, name=layout.name + "-retarget")
    for rect in layout.shapes:
        grown = rect.expanded(bias)
        clipped = grown.clipped_to(layout.bounds)
        if clipped is not None:
            retargeted.add(clipped)
    return retargeted


class OPCEngine:
    """Edge-based OPC driven by the golden lithography simulator.

    Simulation runs through the batch-first
    :class:`~repro.pipeline.InferencePipeline` — the same execution path every
    other inference consumer uses (the batched single-FFT aerial path with
    cached SOCS transfer functions lives in :mod:`repro.litho.hopkins` and is
    shared by all callers).  With ``config.incremental`` (default on) the loop
    uses the pipeline's patched plan: only the tile windows a move step
    actually changed are re-simulated (see the module docstring), with
    counters surfaced on :class:`OPCResult`.
    """

    def __init__(self, simulator: LithoSimulator, config: OPCConfig | None = None) -> None:
        self.simulator = simulator
        self.config = config or OPCConfig()
        self.pipeline = InferencePipeline(simulator, config=self.config.execution)

    def close(self) -> None:
        """Release the simulation pipeline's worker pool (no-op when serial)."""
        self.pipeline.close()

    def __enter__(self) -> "OPCEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def correct(self, layout: Layout) -> OPCResult:
        """Run iterative OPC on a layout and return the corrected mask.

        The target (desired wafer contour) is the drawn layout itself,
        rasterized at the simulator's pixel size.  ``final_mask`` always
        reflects the *post-update* fragment positions — with ``iterations=0``
        that is the uncorrected rasterized target (plus SRAFs).
        """
        config = self.config
        pixel_size = self.simulator.pixel_size
        image_size = int(round(layout.bounds.width / pixel_size))
        target = rasterize(layout, pixel_size=pixel_size, image_size=image_size)

        shapes = fragment_layout(layout, pixel_size, config.max_fragment_length)
        sraf_boxes = (
            sraf_rects_pixels(insert_srafs(layout), pixel_size) if config.use_srafs else []
        )

        state = None
        index = None
        if config.incremental:
            state = self.pipeline.incremental_state((image_size, image_size))
            if state.n_tiles > 1:
                index = FragmentTileIndex(shapes, state.specs, image_size, config.max_offset)

        result = OPCResult(
            final_mask=target.copy(),
            target=target,
            counters=state.counters if state is not None else None,
        )
        painter = MaskPainter(shapes, image_size, sraf_boxes)
        candidates = None
        moved: list[tuple[int, int]] = []
        for _ in range(config.iterations):
            mask = build_mask(shapes, image_size, sraf_boxes, painter=painter, moved=moved)
            if state is not None:
                spent = state.counters.tile_equivalents(state.n_tiles)
                resist = self.pipeline.predict_patched(mask, state, candidates=candidates)
                result.dirty_history.append(
                    state.counters.tile_equivalents(state.n_tiles) - spent
                )
            else:
                resist = self.pipeline.predict(mask)
            stats = measure_layout_epe(
                resist, shapes, pixel_size, config.epe_search_range, skip_frozen=True
            )
            if config.record_history:
                result.mask_history.append(mask)
            result.epe_history.append(stats)
            moved = self._apply_moves(shapes, stats)
            candidates = index.tiles_for(moved) if index is not None else None

        # Build the mask with the final fragment positions (post last update).
        result.final_mask = build_mask(shapes, image_size, sraf_boxes, painter=painter, moved=moved)
        if config.record_history:
            result.mask_history.append(result.final_mask)
        return result

    # ------------------------------------------------------------------ #
    def _apply_moves(
        self, shapes: list[FragmentedShape], stats: EPEStatistics
    ) -> list[tuple[int, int]]:
        """Move every active fragment against its measured EPE.

        Consumes ``stats.values`` in the same deterministic (shape, fragment)
        scan order :func:`~repro.opc.epe.measure_layout_epe` produced them —
        one EPE walk per iteration serves both the statistics and the move
        step.  Returns the ``(shape, fragment)`` ids whose *rounded* offset
        changed (the only moves that can repaint mask pixels): the mask
        painter repaints them and the fragment->tile index turns them into
        dirty-window candidates.  With ``freeze_after`` set, fragments whose
        |EPE| held within tolerance for that many consecutive iterations are
        frozen here.
        """
        config = self.config
        values = iter(stats.values.tolist())
        moved: list[tuple[int, int]] = []
        for si, shape in enumerate(shapes):
            for fi, fragment in enumerate(shape.fragments):
                if fragment.frozen:
                    continue
                epe = next(values)
                if config.freeze_after is not None:
                    if abs(epe) <= config.freeze_tolerance:
                        fragment.stable_iters += 1
                        if fragment.stable_iters >= config.freeze_after:
                            fragment.frozen = True
                            continue
                    else:
                        fragment.stable_iters = 0
                if epe <= -config.epe_search_range:
                    # The feature did not print at all at this control point.
                    # Grow gently instead of jumping by the (saturated) error,
                    # which would overshoot and oscillate with a binary resist.
                    step = 1.0
                else:
                    # min(max(x, lo), hi) is np.clip's own formula, so NaN and
                    # -0.0 come out the same, at a tenth of the cost of a
                    # numpy call on a Python float.
                    step = float(min(max(-config.gain * epe, -config.max_step), config.max_step))
                # Damp oscillation: if the correction reversed direction since
                # the previous iteration, take only half a step.
                if step * fragment.last_step < 0.0:
                    step *= 0.5
                fragment.last_step = step
                previous_pixels = int(round(fragment.offset))
                fragment.offset = float(
                    min(max(fragment.offset + step, -config.max_offset), config.max_offset)
                )
                if int(round(fragment.offset)) != previous_pixels:
                    moved.append((si, fi))
        return moved
