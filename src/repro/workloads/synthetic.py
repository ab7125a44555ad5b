"""Synthetic trace generation from published workload characteristics.

Table 2 publishes, per trace: read percentage, average request size, and
average inter-request arrival time.  The generator reproduces those
marginals exactly-in-expectation with the distribution shapes block traces
exhibit:

* Poisson arrivals (exponential gaps) at the published mean,
* lognormal request sizes (heavily right-skewed) at the published mean,
  rounded to the trace's sector granularity,
* addresses drawn from a configurable pattern -- uniform random over a
  working set, zipfian-hot (YCSB-like), or sequential runs with random
  jumps (enterprise volume scans).

What matters for the path-conflict phenomenon is the *spread of requests
across chips over time*, which these three marginals plus the address
pattern control; see DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.config.ssd_config import KIB, NS_PER_US
from repro.errors import WorkloadError
from repro.hil.request import IoKind, IoRequest
from repro.sim.rng import DeterministicRng
from repro.workloads.trace import Trace

SECTOR = 4 * KIB  # request sizes align to 4 KB, the smallest page evaluated


class AddressPattern(enum.Enum):
    RANDOM = "random"  # uniform over the working set
    ZIPFIAN = "zipfian"  # YCSB-style hot keys
    SEQUENTIAL_RUNS = "sequential"  # runs with random jumps


@dataclass(frozen=True)
class WorkloadSpec:
    """Table 2 row + distribution shape knobs.

    ``burst_mean`` / ``intra_burst_gap_us`` shape the arrival process as
    ON-OFF bursts: enterprise block traces (MSR Cambridge in particular) are
    famously bursty, with peak arrival rates orders of magnitude above the
    mean -- applications issue dependent batches of I/O.  Requests arrive in
    geometrically-sized bursts at ``intra_burst_gap_us`` spacing, separated
    by idle gaps sized so the *overall* mean inter-arrival time matches the
    published Table 2 value exactly-in-expectation.  Burstiness is what
    exposes path conflicts; a Poisson stream at these mean rates would
    leave the fabric nearly idle.
    """

    name: str
    read_pct: float
    avg_size_kb: float
    avg_interarrival_us: float
    source: str = "synthetic"
    pattern: AddressPattern = AddressPattern.RANDOM
    working_set_fraction: float = 0.8  # of the target footprint
    sequential_run_length: int = 8  # requests per run for SEQUENTIAL_RUNS
    size_sigma: float = 0.6  # lognormal shape
    zipf_skew: float = 0.99
    burst_mean: float = 64.0  # mean requests per burst (geometric)
    intra_burst_gap_us: float = 1.0  # spacing inside a burst
    burst_extent_bytes: int = 2 << 20  # hot extent each burst clusters on

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_pct <= 100.0:
            raise WorkloadError(f"{self.name}: read_pct out of [0,100]")
        if self.avg_size_kb <= 0:
            raise WorkloadError(f"{self.name}: avg size must be positive")
        if self.avg_interarrival_us <= 0:
            raise WorkloadError(f"{self.name}: inter-arrival must be positive")
        if not 0.0 < self.working_set_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: working set fraction out of (0,1]")
        if self.burst_mean < 1.0:
            raise WorkloadError(f"{self.name}: burst_mean must be >= 1")
        if self.intra_burst_gap_us < 0.0:
            raise WorkloadError(f"{self.name}: intra-burst gap must be >= 0")
        if self.burst_extent_bytes < SECTOR:
            raise WorkloadError(f"{self.name}: burst extent below one sector")

    @property
    def read_fraction(self) -> float:
        """The published read percentage as a [0, 1] fraction."""
        return self.read_pct / 100.0


class SyntheticGenerator:
    """Generates traces from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, seed: int = 42) -> None:
        self.spec = spec
        self._rng = DeterministicRng(seed, stream=f"workload:{spec.name}")

    # ------------------------------------------------------------------ #

    def _draw_size(self) -> int:
        raw = self._rng.lognormal(self.spec.avg_size_kb * KIB, self.spec.size_sigma)
        sectors = max(1, round(raw / SECTOR))
        return sectors * SECTOR

    def _draw_kind(self) -> IoKind:
        return (
            IoKind.READ
            if self._rng.random() < self.spec.read_fraction
            else IoKind.WRITE
        )

    def _aligned(self, offset: int) -> int:
        return (offset // SECTOR) * SECTOR

    def _next_gap_ns(self, burst_state: dict) -> float:
        """ON-OFF bursty gap process preserving the Table 2 mean.

        Within a burst: fixed ``intra_burst_gap_us`` spacing.  Between
        bursts: an exponential idle gap whose mean tops the overall mean
        inter-arrival time back up to the published value.  Degenerates to
        plain Poisson when the published mean is at or below the intra-burst
        spacing (the trace is already a continuous burst).
        """
        spec = self.spec
        mean_ns = spec.avg_interarrival_us * NS_PER_US
        intra_ns = spec.intra_burst_gap_us * NS_PER_US
        if mean_ns <= intra_ns or spec.burst_mean <= 1.0:
            # Continuous-burst regime: still rotate hot extents occasionally.
            if self._rng.random() < 1.0 / spec.burst_mean:
                burst_state["extent_base"] = None
            return self._rng.exponential_gap(mean_ns)
        if burst_state["remaining"] > 0:
            burst_state["remaining"] -= 1
            return intra_ns
        # Start a new burst: geometric size with the configured mean, and a
        # fresh hot extent (bursts are spatially local: an application
        # touches one file/extent, not the whole volume).
        size = 1
        continue_probability = 1.0 - 1.0 / spec.burst_mean
        while self._rng.random() < continue_probability:
            size += 1
        burst_state["remaining"] = size - 1
        burst_state["extent_base"] = None
        # Idle gap mean chosen so E[gap] over the whole stream == mean_ns:
        # a burst of B requests contributes (B-1) intra gaps + 1 idle gap.
        idle_mean = spec.burst_mean * (mean_ns - intra_ns) + intra_ns
        return self._rng.exponential_gap(idle_mean)

    def _pick_extent(self, working_set: int, burst_state: dict) -> int:
        """Extent-aligned base of the current burst's hot region."""
        extent = min(self.spec.burst_extent_bytes, working_set)
        extent = max(SECTOR, (extent // SECTOR) * SECTOR)
        buckets = max(1, working_set // extent)
        if self.spec.pattern is AddressPattern.ZIPFIAN:
            bucket = self._rng.zipf_index(buckets, self.spec.zipf_skew)
            # Hash-spread the hot extents across the footprint (key-value
            # stores do not keep hot keys adjacent).
            bucket = (bucket * 2654435761) % buckets
        else:
            bucket = self._rng.randint(0, buckets - 1)
        burst_state["extent_base"] = bucket * extent
        burst_state["extent_size"] = extent
        return burst_state["extent_base"]

    def generate(self, count: int, footprint_bytes: int) -> Trace:
        """``count`` requests over a ``footprint_bytes`` address range."""
        if count < 1:
            raise WorkloadError("need at least one request")
        if footprint_bytes < SECTOR * 4:
            raise WorkloadError(f"footprint too small: {footprint_bytes}")
        spec = self.spec
        working_set = max(SECTOR * 2, int(footprint_bytes * spec.working_set_fraction))

        requests: List[IoRequest] = []
        clock = 0.0
        burst_state = {"remaining": 0, "extent_base": None, "extent_size": SECTOR}
        sequential_cursor = self._aligned(self._rng.randint(0, working_set - SECTOR))
        run_remaining = 0

        for index in range(count):
            if index > 0:
                clock += self._next_gap_ns(burst_state)
            if burst_state["extent_base"] is None:
                self._pick_extent(working_set, burst_state)

            size = self._draw_size()
            max_offset = max(0, working_set - size)

            if spec.pattern is AddressPattern.SEQUENTIAL_RUNS:
                if run_remaining <= 0:
                    sequential_cursor = self._aligned(
                        self._rng.randint(0, max(0, max_offset))
                    )
                    run_remaining = spec.sequential_run_length
                offset = min(sequential_cursor, max_offset)
                sequential_cursor = self._aligned(offset + size)
                if sequential_cursor >= working_set:
                    sequential_cursor = 0
                run_remaining -= 1
            else:
                # RANDOM and ZIPFIAN draw uniformly inside the burst's hot
                # extent; the patterns differ in how extents are chosen.
                base = burst_state["extent_base"]
                extent = burst_state["extent_size"]
                span = max(SECTOR, extent - min(size, extent))
                offset = base + self._aligned(self._rng.randint(0, span - 1))
                offset = min(offset, max_offset)

            requests.append(
                IoRequest(
                    kind=self._draw_kind(),
                    offset_bytes=offset,
                    size_bytes=size,
                    arrival_ns=int(round(clock)),
                )
            )

        return Trace(spec.name, requests)
