"""Edge-based OPC engine, SRAF insertion and EPE metrics."""

from .engine import (
    MaskHistory,
    OPCConfig,
    OPCEngine,
    OPCResult,
    rule_based_retarget,
)
from .epe import EPEStatistics, measure_layout_epe
from .fragments import (
    Fragments,
    MaskPainter,
    build_mask,
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
    "measure_layout_epe",
    "Fragments",
    "MaskPainter",
    "build_mask",
    "fragment_layout",
    "insert_srafs",
    "sraf_rects_pixels",
]
