"""Iterative edge-based OPC engine.

The engine reproduces the mask-correction loop that generated the paper's
training masks and the 24-iteration snapshots of Figure 8: fragment the target
edges, simulate the current mask with the golden simulator, measure the edge
placement error at every fragment and move each fragment against its error.

Incremental re-simulation
-------------------------
Each move step perturbs a handful of fragment offsets, so most of the mask
is unchanged between iterations.  With ``incremental`` enabled (the default)
the loop runs through :meth:`repro.pipeline.InferencePipeline.predict_patched`,
which caches the golden simulator's SOCS field planes.  Each plane is linear
in the mask, so an iteration convolves only the 16 px blocks whose pixels
changed and adds those field deltas to the cached planes, recomputing the
intensity within the optical influence radius of them.  A block-cost rule
runs one whole-mask refresh instead when the dirty blocks would cost more
(the first iteration and the early, busy ones), so the incremental loop
never loses materially to the plain one; the savings grow as fragments
converge, especially with ``freeze_after``, which is what actually collapses
the dirty set (a converged fragment otherwise keeps jittering across the
pixel-rounding boundary and keeps its blocks dirty forever).

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
from .fragments import Fragments, MaskPainter, build_mask, fragment_layout
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
    #: supervision.  OPC is the canonical repeated-call workload — the
    #: iterate-simulate-measure loop calls the simulator once per iteration
    #: on same-shaped masks, so a pooled run maps its shared-memory ring
    #: once and reuses it for the whole correction.
    execution: "ExecutionConfig | None" = None
    #: Incremental re-simulation: patch the cached SOCS field planes with
    #: the field deltas of the blocks each iteration changed
    #: (:meth:`InferencePipeline.predict_patched`), with a whole-mask
    #: refresh when the dirty blocks would cost more.  The result matches
    #: the plain loop (same ``final_mask``, same ``epe_history``).  ``False``
    #: restores the always-full simulation loop.
    incremental: bool = True
    #: Freeze a fragment once |EPE| stayed within ``freeze_tolerance`` for
    #: this many consecutive iterations: it stops being measured and never
    #: moves again, shrinking both the EPE walk and the dirty-block set as the
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

    def append(self, mask: np.ndarray, bits: np.ndarray | None = None) -> None:
        """Store a snapshot of ``mask``.

        ``bits`` is the boolean image of a mask known to be binary (a
        :class:`~repro.opc.fragments.MaskPainter`'s :attr:`bits`): it is
        packed as given, skipping the whole-image binary check.
        """
        mask = np.asarray(mask)
        if bits is None:
            bits = mask != 0
            if not np.array_equal(bits.astype(mask.dtype), mask):
                self._entries.append(("raw", mask.copy()))
                return
        self._entries.append(("packed", np.packbits(bits, axis=None), mask.shape, mask.dtype))

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
    #: Block patches spent per iteration (a full refresh counts as the
    #: state's ``n_tiles`` blocks); empty when the incremental plan was
    #: disabled.
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
    uses the pipeline's patched plan: only the blocks a move step actually
    changed are convolved, as field deltas (see the module docstring), with
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

        fragments = fragment_layout(layout, pixel_size, config.max_fragment_length)
        sraf_boxes = (
            sraf_rects_pixels(insert_srafs(layout), pixel_size) if config.use_srafs else []
        )

        state = None
        if config.incremental:
            state = self.pipeline.incremental_state((image_size, image_size))

        result = OPCResult(
            final_mask=target.copy(),
            target=target,
            counters=state.counters if state is not None else None,
        )
        painter = MaskPainter(fragments, image_size, sraf_boxes)
        moved = np.empty(0, dtype=np.intp)
        for _ in range(config.iterations):
            mask = build_mask(fragments, image_size, sraf_boxes, painter=painter, moved=moved)
            if state is not None:
                spent = state.counters.tile_equivalents(state.n_tiles)
                resist = self.pipeline.predict_patched(mask, state)
                result.dirty_history.append(
                    state.counters.tile_equivalents(state.n_tiles) - spent
                )
            else:
                resist = self.pipeline.predict(mask)
            stats = measure_layout_epe(
                resist, fragments, pixel_size, config.epe_search_range, skip_frozen=True
            )
            if config.record_history:
                result.mask_history.append(mask, bits=painter.bits)
            result.epe_history.append(stats)
            moved = self._apply_moves(fragments, stats)

        # Build the mask with the final fragment positions (post last update).
        result.final_mask = build_mask(
            fragments, image_size, sraf_boxes, painter=painter, moved=moved
        )
        if config.record_history:
            result.mask_history.append(result.final_mask, bits=painter.bits)
        return result

    # ------------------------------------------------------------------ #
    def _apply_moves(self, fragments: Fragments, stats: EPEStatistics) -> np.ndarray:
        """Move every active fragment against its measured EPE.

        ``stats.values[k]`` is the EPE of the ``k``-th unfrozen fragment id in
        ascending order, which is how :func:`~repro.opc.epe.measure_layout_epe`
        lays them out with ``skip_frozen=True`` — one EPE walk per iteration
        serves both the statistics and the move step.  Returns the ids whose
        *rounded* offset changed (the only moves that can repaint mask
        pixels), which the mask painter repaints.  With ``freeze_after`` set,
        fragments whose |EPE| held within tolerance for that many consecutive
        iterations are frozen here, before they move.
        """
        config = self.config
        ids = np.flatnonzero(~fragments.frozen)
        epe = stats.values
        if config.freeze_after is not None:
            stable = np.abs(epe) <= config.freeze_tolerance
            fragments.stable_iters[ids] = np.where(stable, fragments.stable_iters[ids] + 1, 0)
            freeze = stable & (fragments.stable_iters[ids] >= config.freeze_after)
            fragments.frozen[ids[freeze]] = True
            ids, epe = ids[~freeze], epe[~freeze]
        # min(max(x, lo), hi) is np.clip's own formula.  Where the feature did
        # not print at all at the control point, grow gently instead of
        # jumping by the (saturated) error, which would overshoot and
        # oscillate with a binary resist.
        step = np.where(
            epe <= -config.epe_search_range,
            1.0,
            np.minimum(np.maximum(-config.gain * epe, -config.max_step), config.max_step),
        )
        # Damp oscillation: if the correction reversed direction since the
        # previous iteration, take only half a step.
        step = np.where(step * fragments.last_step[ids] < 0.0, step * 0.5, step)
        fragments.last_step[ids] = step
        previous = np.rint(fragments.offset[ids])
        offset = np.minimum(
            np.maximum(fragments.offset[ids] + step, -config.max_offset), config.max_offset
        )
        fragments.offset[ids] = offset
        return ids[np.rint(offset) != previous]
