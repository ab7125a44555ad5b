"""Failure-sweep experiments: sampling, specs, caching, and the curve."""

import pytest

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import Executor
from repro.experiments.faults import (
    DEFAULT_LINK_COUNTS,
    SWEEP_DESIGNS,
    _sweep_plan,
    degradation_links,
    link_fault_schedule,
    run_faults_sweep,
)
from repro.experiments.spec import ExperimentScale, make_spec
from repro.experiments.store import ResultStore
from repro.interconnect.topology import MeshTopology, edge_key

SCALE = ExperimentScale(
    requests=48,
    requests_per_mix_constituent=24,
    blocks_per_plane=16,
    pages_per_block=16,
)


# --------------------------------------------------------------------- #
# link sampling
# --------------------------------------------------------------------- #

def test_degradation_links_are_deterministic_and_nested():
    four = degradation_links(8, 8, 4, seed=42)
    assert four == degradation_links(8, 8, 4, seed=42)
    two = degradation_links(8, 8, 2, seed=42)
    assert four[:2] == two  # prefix nesting: the curve adds failures
    assert degradation_links(8, 8, 4, seed=43) != four


def test_degradation_links_never_partition_the_mesh():
    topology = MeshTopology(8, 8)
    links = degradation_links(8, 8, 20, seed=7)
    assert len(links) == 20 and len(set(links)) == 20
    dead = {edge_key(a, b) for a, b in links}
    start = (0, 0)
    frontier, seen = [start], {start}
    while frontier:
        node = frontier.pop()
        for _, neighbor in topology.neighbors(node):
            if neighbor not in seen and edge_key(node, neighbor) not in dead:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert len(seen) == topology.node_count


def test_degradation_links_respects_the_spanning_tree_slack():
    # 2x2 mesh: 4 edges, 4 nodes -> at most 1 removable link.
    assert len(degradation_links(2, 2, 1, seed=1)) == 1
    with pytest.raises(ConfigurationError):
        degradation_links(2, 2, 2, seed=1)
    with pytest.raises(ConfigurationError):
        degradation_links(8, 8, -1, seed=1)


# --------------------------------------------------------------------- #
# spec plumbing
# --------------------------------------------------------------------- #

def test_empty_schedule_leaves_spec_digest_and_dict_unchanged():
    plain = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    empty = make_spec("venice", "performance-optimized", "hm_0", SCALE, faults="")
    assert plain.digest == empty.digest
    assert "faults" not in plain.to_dict()
    faulted = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        faults="0 link (0,0)-(0,1) down",
    )
    assert faulted.digest != plain.digest
    assert faulted.to_dict()["faults"] == "0ns link (0,0)-(0,1) down"


def test_equivalent_schedules_share_one_digest():
    a = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        faults="1us link (0,1)-(0,0) down",
    )
    b = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        faults="1000ns link (0,0)-(0,1) down",
    )
    assert a == b and a.digest == b.digest


def test_faulted_spec_round_trips_through_dict():
    spec = make_spec(
        "nossd", "performance-optimized", "proj_3", SCALE,
        faults="0 die 1.1.0 down; 2ms ecc-burst rate=0.1 for=1ms",
    )
    from repro.experiments.spec import RunSpec

    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_sweep_specs_share_the_fault_set_across_designs():
    _, plan = _sweep_plan(
        "performance-optimized", "hm_0", SCALE, (0, 2), SWEEP_DESIGNS, 42
    )
    per_count = {count: specs for count, (_, specs) in plan.items()}
    assert set(per_count) == {0, 2}
    for spec in per_count[0]:
        assert spec.faults == ""
    schedules = {spec.faults for spec in per_count[2]}
    assert len(schedules) == 1 and "" not in schedules
    assert {spec.design for spec in per_count[2]} == {
        design.value for design in SWEEP_DESIGNS
    }


# --------------------------------------------------------------------- #
# the sweep itself
# --------------------------------------------------------------------- #

def test_sweep_venice_survives_where_bus_and_nossd_stall():
    result = run_faults_sweep(
        workload="hm_0", scale=SCALE, link_counts=(0, 6), seed=42
    )
    curve = result["curve"]
    assert result["link_counts"] == [0, 6]
    for design in curve[0]:
        assert curve[0][design]["completed_fraction"] == 1.0
    faulted = curve[6]
    assert faulted["venice"]["completed_fraction"] == 1.0
    assert faulted["venice"]["iops"] > 0
    # The deterministic 6-link sample hits row buses and XY paths: the
    # designs without path diversity lose requests.
    assert faulted["nossd"]["completed_fraction"] < 1.0
    assert min(
        faulted[d]["completed_fraction"] for d in ("baseline", "pssd", "nossd")
    ) < 1.0


def test_sweep_is_cache_replayable(tmp_path):
    store = ResultStore(tmp_path / "store")
    executor = Executor()
    first = run_faults_sweep(
        workload="hm_0", scale=SCALE, link_counts=(0, 2),
        executor=executor, store=store,
    )
    simulated = executor.runs_completed
    assert simulated == 2 * len(SWEEP_DESIGNS)
    warm_executor = Executor()
    second = run_faults_sweep(
        workload="hm_0", scale=SCALE, link_counts=(0, 2),
        executor=warm_executor, store=ResultStore(tmp_path / "store"),
    )
    assert warm_executor.runs_completed == 0  # warm re-run: zero simulations
    assert first == second


def test_default_link_counts_start_at_zero():
    assert DEFAULT_LINK_COUNTS[0] == 0


def test_link_fault_schedule_builds_canonical_events():
    schedule = link_fault_schedule([((0, 1), (0, 0)), ((2, 2), (2, 3))], at_ns=5)
    assert len(schedule) == 2
    assert schedule.events[0].link == ((0, 0), (0, 1))
    assert all(event.time_ns == 5 for event in schedule)


# --------------------------------------------------------------------- #
# figure --faults path
# --------------------------------------------------------------------- #

def test_run_figure_applies_faults_to_every_spec(tmp_path):
    from repro.experiments import figures

    store = ResultStore(tmp_path / "store")
    pristine = figures.run_figure("fig13", SCALE, ["hm_0"], store=store)
    entries_before = len(store)
    faulted = figures.run_figure(
        "fig13", SCALE, ["hm_0"], store=store,
        faults="0 link (0,2)-(0,3) down",
    )
    # Faulted runs are distinct cache entries, one per (design, workload).
    assert len(store) == 2 * entries_before
    assert faulted["conflict_fraction"]["hm_0"] != pristine["conflict_fraction"]["hm_0"]
