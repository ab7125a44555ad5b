"""Configuration dataclasses for the simulated SSD.

Times are integer nanoseconds, sizes are bytes, rates are bytes/second.
Validation happens eagerly in ``__post_init__`` so a bad configuration fails
at construction, not deep inside a simulation run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000
KIB = 1024


class DesignKind(enum.Enum):
    """The six evaluated SSD communication designs (paper §3, §5)."""

    BASELINE = "baseline"
    PSSD = "pssd"
    PNSSD = "pnssd"
    NOSSD = "nossd"
    VENICE = "venice"
    IDEAL = "ideal"

    @classmethod
    def from_name(cls, name: str) -> "DesignKind":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(kind.value for kind in cls)
            raise ConfigurationError(f"unknown design {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class NandTimings:
    """NAND operation latencies (Table 1)."""

    read_ns: int
    program_ns: int
    erase_ns: int
    command_ns: int = 10  # CMD transfer: 10 ns (paper §3.1)

    def __post_init__(self) -> None:
        for name in ("read_ns", "program_ns", "erase_ns", "command_ns"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class NandGeometry:
    """Physical organisation of the flash array (Table 1)."""

    channels: int = 8
    chips_per_channel: int = 8
    dies_per_chip: int = 1
    planes_per_die: int = 2
    blocks_per_plane: int = 1024
    pages_per_block: int = 768
    page_size: int = 4 * KIB

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def dies_total(self) -> int:
        return self.total_chips * self.dies_per_chip

    @property
    def planes_total(self) -> int:
        return self.dies_total * self.planes_per_die

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.planes_total * self.pages_per_plane

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size


@dataclass(frozen=True)
class InterconnectConfig:
    """Parameters of the communication substrate.

    ``channel_rate`` applies to the baseline/pSSD/pnSSD/ideal shared buses
    (1.2 GB/s per Table 1).  ``link_width``/``link_frequency`` describe the
    mesh links of NoSSD and Venice (8-bit, 1 GHz per Table 1), giving a link
    rate of 1 GB/s.
    """

    channel_rate: int = 1_200_000_000  # bytes/second
    link_width_bytes: int = 1  # 8-bit links
    link_frequency_hz: int = 1_000_000_000
    router_pipeline_ns: int = 1  # per-router decision latency for scouts
    scout_retry_gap_ns: int = 100  # FC retry delay after a failed reservation
    max_scout_retries: int = 64
    pssd_bandwidth_factor: float = 2.0  # pSSD doubles channel bandwidth

    def __post_init__(self) -> None:
        if self.channel_rate <= 0:
            raise ConfigurationError("channel_rate must be positive")
        if self.link_width_bytes <= 0:
            raise ConfigurationError("link_width_bytes must be positive")
        if self.link_frequency_hz <= 0:
            raise ConfigurationError("link_frequency_hz must be positive")
        if self.pssd_bandwidth_factor <= 0:
            raise ConfigurationError("pssd_bandwidth_factor must be positive")

    @property
    def link_cycle_ns(self) -> float:
        return NS_PER_S / self.link_frequency_hz

    def channel_transfer_ns(self, size_bytes: int, bandwidth_factor: float = 1.0) -> int:
        """Serialization time of ``size_bytes`` on a shared channel."""
        if size_bytes < 0:
            raise ConfigurationError(f"negative transfer size: {size_bytes}")
        rate = self.channel_rate * bandwidth_factor
        return max(1, round(size_bytes * NS_PER_S / rate)) if size_bytes else 0

    def link_transfer_ns(self, size_bytes: int, distance_hops: int) -> int:
        """Equation (1) of the paper.

        T = [distance + transfer_size / link_width] * link_latency
        """
        if size_bytes < 0 or distance_hops < 0:
            raise ConfigurationError("negative transfer size or distance")
        flits = size_bytes / self.link_width_bytes
        return max(1, round((distance_hops + flits) * self.link_cycle_ns))


@dataclass(frozen=True)
class SsdConfig:
    """Everything needed to instantiate one simulated SSD."""

    name: str
    geometry: NandGeometry
    timings: NandTimings
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    queue_depth: int = 256
    gc_threshold_free_fraction: float = 0.05
    gc_stop_free_fraction: float = 0.08
    over_provisioning: float = 0.07
    ecc_latency_ns: int = 200  # FC ECC decode/encode pipeline latency
    seed: int = 42

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if not 0.0 < self.gc_threshold_free_fraction < 1.0:
            raise ConfigurationError("gc_threshold_free_fraction out of (0,1)")
        if not self.gc_threshold_free_fraction <= self.gc_stop_free_fraction < 1.0:
            raise ConfigurationError("gc_stop_free_fraction must be >= threshold")
        if not 0.0 <= self.over_provisioning < 0.5:
            raise ConfigurationError("over_provisioning out of [0, 0.5)")
        if self.ecc_latency_ns < 0:
            raise ConfigurationError("ecc_latency_ns must be >= 0")

    # Mesh geometry: one flash-controller per row, chips_per_channel columns.
    @property
    def mesh_rows(self) -> int:
        return self.geometry.channels

    @property
    def mesh_cols(self) -> int:
        return self.geometry.chips_per_channel

    @property
    def flash_controllers(self) -> int:
        """One flash controller per channel/row in every design."""
        return self.geometry.channels

    def with_geometry(self, channels: int, chips_per_channel: int) -> "SsdConfig":
        """Derive a config with a different FC-count x chips-per-row shape.

        Used by the Figure 15 sensitivity study (4x16, 8x8, 16x4) which keeps
        the total chip count constant while varying the controller count.
        """
        new_geometry = replace(
            self.geometry, channels=channels, chips_per_channel=chips_per_channel
        )
        return replace(self, geometry=new_geometry)

    def with_ftl_knobs(
        self,
        *,
        over_provisioning: Optional[float] = None,
        gc_threshold_free_fraction: Optional[float] = None,
        gc_stop_free_fraction: Optional[float] = None,
    ) -> "SsdConfig":
        """Derive a config with FTL knob overrides (``None`` = keep).

        The vehicle for spec-carried over-provisioning and GC-watermark
        sweeps: :class:`~repro.ssd.device.SsdDevice` applies the knobs it
        was constructed with through this helper, and validation re-runs
        via ``__post_init__`` so an out-of-range override fails exactly
        like an out-of-range config field.  With every override ``None``
        the config is returned unchanged (strict no-op).
        """
        overrides = {
            key: value
            for key, value in {
                "over_provisioning": over_provisioning,
                "gc_threshold_free_fraction": gc_threshold_free_fraction,
                "gc_stop_free_fraction": gc_stop_free_fraction,
            }.items()
            if value is not None
        }
        if not overrides:
            return self
        return replace(self, **overrides)

    def describe(self) -> str:
        geometry = self.geometry
        return (
            f"{self.name}: {geometry.channels}ch x {geometry.chips_per_channel}chips, "
            f"{geometry.dies_per_chip}die/{geometry.planes_per_die}pl, "
            f"page={geometry.page_size}B, tR={self.timings.read_ns}ns, "
            f"tPROG={self.timings.program_ns}ns, tBERS={self.timings.erase_ns}ns"
        )
