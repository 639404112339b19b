"""Edge-based OPC engine, SRAF insertion and EPE metrics."""

from .engine import (
    MaskHistory,
    OPCConfig,
    OPCEngine,
    OPCResult,
    rule_based_retarget,
)
from .epe import EPEStatistics, measure_fragment_epe, measure_layout_epe
from .fragments import (
    EdgeFragment,
    FragmentedShape,
    FragmentTileIndex,
    MaskPainter,
    build_mask,
    fragment_footprint,
    fragment_layout,
)
from .sraf import insert_srafs, sraf_rects_pixels

__all__ = [
    "MaskHistory",
    "OPCConfig",
    "OPCEngine",
    "OPCResult",
    "rule_based_retarget",
    "EPEStatistics",
    "measure_fragment_epe",
    "measure_layout_epe",
    "EdgeFragment",
    "FragmentedShape",
    "FragmentTileIndex",
    "MaskPainter",
    "build_mask",
    "fragment_footprint",
    "fragment_layout",
    "insert_srafs",
    "sraf_rects_pixels",
]
