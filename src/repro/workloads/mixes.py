"""The six mixed workloads (paper Table 3).

"To evaluate Venice under real-world scenarios, where multiple workloads
access the same SSD, we create mixed workloads by combining two or three
independent storage workloads."  Each constituent runs in its own NVMe
queue (queue_id tags the requester); the merged stream is time-rescaled to
hit the published mix inter-arrival intensity, which Table 3 reports as far
higher than the constituents' own (e.g. mix6 at 3 us).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config.ssd_config import NS_PER_US
from repro.errors import WorkloadError
from repro.hil.request import IoRequest
from repro.workloads.catalog import generate_workload
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class MixSpec:
    """One Table 3 row."""

    name: str
    constituents: Tuple[str, ...]
    description: str
    avg_interarrival_us: float

    def __post_init__(self) -> None:
        if len(self.constituents) < 2:
            raise WorkloadError(f"{self.name}: a mix needs >= 2 constituents")
        if self.avg_interarrival_us <= 0:
            raise WorkloadError(f"{self.name}: inter-arrival must be positive")


MIX_CATALOG: Dict[str, MixSpec] = {
    spec.name: spec
    for spec in [
        MixSpec(
            "mix1", ("src2_1", "proj_3"),
            "Both workloads are read-intensive", 5.8,
        ),
        MixSpec(
            "mix2", ("src2_1", "proj_3", "YCSB_D"),
            "All three workloads are read-intensive", 8.4,
        ),
        MixSpec(
            "mix3", ("prxy_0", "rsrch_0"),
            "Both workloads are write-intensive", 93,
        ),
        MixSpec(
            "mix4", ("prxy_0", "rsrch_0", "mds_0"),
            "All three workloads are write-intensive", 56,
        ),
        MixSpec(
            "mix5", ("prxy_0", "src2_1"),
            "prxy_0 is write-intensive and src2_1 is read-intensive", 5,
        ),
        MixSpec(
            "mix6", ("prxy_0", "src2_1", "usr_0"),
            "prxy_0 write-intensive, src2_1 read-intensive, usr_0 60/40", 3,
        ),
    ]
}


def mix_names() -> List[str]:
    """All six Table 3 mix names, in the paper's order."""
    return list(MIX_CATALOG)


def generate_mix(
    name: str,
    *,
    count_per_constituent: int,
    footprint_bytes: int,
    seed: int = 42,
) -> Trace:
    """Synthesize a Table 3 mix.

    Each constituent gets a disjoint slice of the footprint (independent
    volumes sharing the SSD) and its own queue id; the merged arrival
    stream is rescaled to the published mix intensity.  Constituents are
    always synthesised, never replayed from ``VENICE_TRACE_DIR``: mixes are
    re-timed compositions, and run specs stay a pure function of their
    recorded fields whether or not that variable is set.
    """
    spec = MIX_CATALOG.get(name)
    if spec is None:
        raise WorkloadError(f"unknown mix {name!r}; known: {', '.join(MIX_CATALOG)}")

    slice_bytes = footprint_bytes // len(spec.constituents)
    if slice_bytes <= 0:
        raise WorkloadError("footprint too small to slice across constituents")

    merged: List[IoRequest] = []
    for queue_id, constituent in enumerate(spec.constituents):
        trace = generate_workload(
            constituent,
            count=count_per_constituent,
            footprint_bytes=slice_bytes,
            seed=seed + queue_id,
            source="synthetic",
        )
        base = queue_id * slice_bytes
        for request in trace:
            merged.append(
                IoRequest(
                    kind=request.kind,
                    offset_bytes=base + (request.offset_bytes % slice_bytes),
                    size_bytes=request.size_bytes,
                    arrival_ns=request.arrival_ns,
                    queue_id=queue_id,
                )
            )

    merged.sort(key=lambda request: request.arrival_ns)
    raw = Trace(spec.name, merged)

    # Rescale the merged stream to the Table 3 intensity.
    current = raw.mean_interarrival_us
    if current > 0:
        factor = spec.avg_interarrival_us / current
        raw = raw.scaled_arrivals(factor, name=spec.name)
    return raw
