"""Failure-sweep experiments: degradation curves under injected link faults.

The sweep asks the question the paper argues but never measures: *how do the
five fabrics degrade as links fail?*  For each failed-link count ``k`` it
builds one deterministic, **non-partitioning** fault set (every chip stays
reachable, so a fabric that stalls does so because of its routing, not
because the job was impossible), applies the same set to every design, and
charts throughput / p99 / completion against ``k``.

Everything is spec-driven: each (design, k) cell is one
:class:`~repro.experiments.spec.RunSpec` whose digest covers the fault
schedule, so sweeps deduplicate, parallelise, and cache-replay exactly like
the paper figures (a warm store re-run performs zero simulations).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_specs
from repro.experiments.spec import (
    ExperimentScale,
    RunSpec,
    build_config,
    matrix_specs,
)
from repro.interconnect.topology import Coord, MeshTopology, edge_key
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim.rng import DeterministicRng

#: The five fabrics under test: every design with a real communication
#: substrate (the ideal SSD has no wires to fail).
SWEEP_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
    DesignKind.VENICE,
)

#: Default failed-link counts of the degradation curve.
DEFAULT_LINK_COUNTS = (0, 1, 2, 4, 8)

Edge = Tuple[Coord, Coord]


def _connected(topology: MeshTopology, dead) -> bool:
    """True when the mesh minus ``dead`` edges is still one component."""
    start = (0, 0)
    frontier = [start]
    seen = {start}
    while frontier:
        node = frontier.pop()
        for _, neighbor in topology.neighbors(node):
            if neighbor in seen or edge_key(node, neighbor) in dead:
                continue
            seen.add(neighbor)
            frontier.append(neighbor)
    return len(seen) == topology.node_count


def degradation_links(
    rows: int, cols: int, count: int, seed: int = 42
) -> List[Edge]:
    """Deterministically sample ``count`` distinct non-partitioning links.

    Links are drawn from a seeded shuffle of all mesh edges and accepted
    greedily only if the mesh stays connected with every accepted link
    removed -- so the returned set never partitions any chip, whatever the
    fabric.  Same ``(rows, cols, count, seed)`` always returns the same
    links (the sweep is cache-replayable).  Raises
    :class:`~repro.errors.ConfigurationError` when ``count`` exceeds the
    mesh's spanning-tree slack (``edges - nodes + 1``).
    """
    if count < 0:
        raise ConfigurationError(f"link count must be >= 0, got {count}")
    topology = MeshTopology(rows, cols)
    slack = topology.edge_count - topology.node_count + 1
    if count > slack:
        raise ConfigurationError(
            f"cannot fail {count} links of a {rows}x{cols} mesh without "
            f"partitioning it (at most {slack})"
        )
    edges: List[Edge] = [tuple(sorted(edge)) for edge in topology.edges()]
    edges.sort()  # canonical base order before the seeded shuffle
    rng = DeterministicRng(seed, stream="fault-links")
    rng.shuffle(edges)
    chosen: List[Edge] = []
    dead = set()
    for edge in edges:
        if len(chosen) == count:
            break
        key = edge_key(*edge)
        dead.add(key)
        if _connected(topology, dead):
            chosen.append(edge)
        else:
            dead.discard(key)
    if len(chosen) < count:  # pragma: no cover - slack check prevents this
        raise ConfigurationError(
            f"could only fail {len(chosen)} of {count} links without a partition"
        )
    return chosen


def link_fault_schedule(links: Sequence[Edge], at_ns: int = 0) -> FaultSchedule:
    """A schedule failing every link in ``links`` at ``at_ns`` (no repair)."""
    return FaultSchedule(
        [
            FaultEvent(at_ns, FaultKind.LINK_DOWN, link=(tuple(a), tuple(b)))
            for a, b in links
        ]
    )


def _sweep_plan(
    preset: str,
    workload: str,
    scale: ExperimentScale,
    link_counts: Sequence[int],
    designs: Sequence[DesignKind],
    seed: int,
) -> Tuple[str, Dict[int, Tuple[List[Edge], Tuple[RunSpec, ...]]]]:
    """Sample each count's link set exactly once and pair it with its specs.

    Every design at a given ``k`` sees the *same* fault set (drawn by
    :func:`degradation_links`), and the ``k`` sets are nested by
    construction (the sample for ``k`` is a prefix-extension of the sample
    for smaller ``k``), so the curve measures added failures, not different
    failure geography.
    """
    config = build_config(preset, scale)
    rows, cols = config.mesh_rows, config.mesh_cols
    plan: Dict[int, Tuple[List[Edge], Tuple[RunSpec, ...]]] = {}
    for count in dict.fromkeys(int(k) for k in link_counts):
        links = degradation_links(rows, cols, count, seed)
        specs = matrix_specs(
            preset,
            (workload,),
            scale,
            designs,
            faults=link_fault_schedule(links),
        )
        plan[count] = (links, specs)
    return f"{rows}x{cols}", plan


def run_faults_sweep(
    preset: str = "performance-optimized",
    workload: str = "hm_0",
    scale: Optional[ExperimentScale] = None,
    link_counts: Sequence[int] = DEFAULT_LINK_COUNTS,
    designs: Sequence[DesignKind] = SWEEP_DESIGNS,
    seed: int = 42,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    """Execute a degradation sweep and reduce it to the curve payload.

    Returns ``{"curve": {k: {design: cell}}, "links": {k: [...]}, ...}``
    where each cell carries ``iops``, ``p99_latency_ns``,
    ``mean_latency_ns``, ``completed``, ``completed_fraction``,
    ``conflict_fraction``, and ``stalled`` (requests that never finished
    because the design could not route around the fault set).  Execution
    goes through :func:`~repro.experiments.executor.execute_specs`, so
    ``--jobs``/``--cache`` semantics match the paper figures.
    """
    scale = scale or ExperimentScale()
    mesh, plan = _sweep_plan(
        preset, workload, scale, link_counts, designs, seed
    )
    all_specs = [spec for _, specs in plan.values() for spec in specs]
    results = execute_specs(all_specs, executor=executor, store=store)
    curve: Dict[int, Dict[str, Dict[str, float]]] = {}
    for count, (_, specs) in plan.items():
        cells: Dict[str, Dict[str, float]] = {}
        for spec in specs:
            result = results[spec]
            total = max(1, result.requests_completed + int(
                result.extra.get("requests_stalled", 0.0)
            ))
            cells[spec.design] = {
                "iops": result.iops,
                "p99_latency_ns": result.p99_latency_ns,
                "mean_latency_ns": result.mean_latency_ns,
                "completed": float(result.requests_completed),
                "completed_fraction": result.requests_completed / total,
                "conflict_fraction": result.conflict_fraction,
                "stalled": result.extra.get("requests_stalled", 0.0),
            }
        curve[count] = cells
    return {
        "experiment": "faults-sweep",
        "preset": preset,
        "workload": workload,
        "mesh": mesh,
        "seed": seed,
        "designs": [design.value for design in designs],
        "link_counts": sorted(plan),
        "links": {
            count: [[list(a), list(b)] for a, b in links]
            for count, (links, _) in plan.items()
        },
        "curve": curve,
    }
