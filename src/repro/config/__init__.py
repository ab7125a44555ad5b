"""SSD, NAND, and interconnect configuration objects.

The presets reproduce Table 1 of the paper: the performance-optimized
(Samsung Z-NAND class) and cost-optimized (Samsung PM9A3 class) SSD
configurations plus Venice's design parameters.
"""

from repro.config.ssd_config import (
    NandTimings,
    NandGeometry,
    InterconnectConfig,
    SsdConfig,
    DesignKind,
)
from repro.config.presets import (
    performance_optimized,
    cost_optimized,
    preset_by_name,
    PRESET_NAMES,
)

__all__ = [
    "NandTimings",
    "NandGeometry",
    "InterconnectConfig",
    "SsdConfig",
    "DesignKind",
    "performance_optimized",
    "cost_optimized",
    "preset_by_name",
    "PRESET_NAMES",
]
