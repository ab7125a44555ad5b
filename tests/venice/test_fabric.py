"""VeniceFabric behaviour inside the event simulation."""

import pytest

from repro.config.presets import performance_optimized
from repro.config.ssd_config import DesignKind
from repro.nand.address import ChipAddress
from repro.sim.engine import Engine
from repro.venice.fabric import VeniceFabric


def make_fabric():
    engine = Engine()
    config = performance_optimized(blocks_per_plane=4, pages_per_block=4)
    return engine, VeniceFabric(engine, config)


def run_transfer(engine, fabric, chip, payload, include_command=True):
    holder = {}

    def proc():
        outcome = yield from fabric.transfer(chip, payload, include_command)
        holder["outcome"] = outcome

    engine.process(proc())
    engine.run()
    return holder["outcome"]


def test_single_transfer_completes_conflict_free():
    engine, fabric = make_fabric()
    outcome = run_transfer(engine, fabric, ChipAddress(2, 3), 4096)
    assert not outcome.conflicted
    assert outcome.scout_attempts == 1
    assert outcome.duration_ns > 4096  # Eq-1 serialization dominates
    assert fabric.network.links_in_use() == 0  # circuit torn down


def test_transfer_time_matches_equation_1():
    engine, fabric = make_fabric()
    outcome = run_transfer(engine, fabric, ChipAddress(0, 0), 4096, include_command=False)
    # Direct drop: total_hops=2, Eq 1 gives (2 + 4096) ns plus scout RTT.
    assert 4098 <= outcome.duration_ns <= 4098 + 64


def test_command_phase_is_packetized_not_reserved():
    engine, fabric = make_fabric()
    outcome = run_transfer(engine, fabric, ChipAddress(4, 5), 0)
    assert not outcome.conflicted
    assert outcome.duration_ns < 100  # flit-sized command, wire latency only
    assert fabric.network.reservations == 0


def test_concurrent_transfers_to_distinct_chips_overlap():
    engine, fabric = make_fabric()
    ends = {}

    def proc(tag, chip):
        outcome = yield from fabric.transfer(chip, 4096)
        ends[tag] = outcome

    engine.process(proc("a", ChipAddress(1, 1)))
    engine.process(proc("b", ChipAddress(2, 2)))
    engine.process(proc("c", ChipAddress(3, 3)))
    engine.run()
    # All three overlap: each takes ~4.1 us; serialized would be ~12 us.
    assert max(o.end_ns for o in ends.values()) < 6_000


def test_transfers_to_same_chip_serialize_without_conflict_flag():
    engine, fabric = make_fabric()
    outcomes = {}

    def proc(tag):
        outcome = yield from fabric.transfer(ChipAddress(5, 5), 4096)
        outcomes[tag] = outcome

    engine.process(proc("first"))
    engine.process(proc("second"))
    engine.run()
    spans = sorted((o.start_ns, o.end_ns) for o in outcomes.values())
    # Chip-busy wait is not a path conflict (§3.3 ideal-SSD distinction).
    assert sum(1 for o in outcomes.values() if o.conflicted) == 0
    assert sum(1 for o in outcomes.values() if o.waited) == 1
    assert max(o.end_ns for o in outcomes.values()) > 8_000  # serialized


def test_conflict_flag_set_when_first_scout_fails_on_links():
    engine, fabric = make_fabric()
    # Saturate row 0's drop points with long transfers, then send another.
    outcomes = []

    def proc(chip, payload):
        outcome = yield from fabric.transfer(chip, payload)
        outcomes.append(outcome)

    # Many large concurrent transfers across the mesh to induce link clashes.
    for way in range(8):
        engine.process(proc(ChipAddress(0, way), 65536))
        engine.process(proc(ChipAddress(1, way), 65536))
        engine.process(proc(ChipAddress(2, way), 65536))
    engine.run()
    assert fabric.stats.scout_failures_total > 0
    assert fabric.network.links_in_use() == 0


def test_fc_load_spreading_uses_multiple_controllers():
    engine, fabric = make_fabric()
    outcomes = []

    def proc(chip):
        outcome = yield from fabric.transfer(chip, 16384)
        outcomes.append(outcome)

    for way in range(8):
        engine.process(proc(ChipAddress(4, way)))
    engine.run()
    assert len(outcomes) == 8
    # Not everything on FC 4.
    assert len({outcome.fc_index for outcome in outcomes}) >= 2


def test_fabric_stats_accumulate():
    engine, fabric = make_fabric()
    run_transfer(engine, fabric, ChipAddress(1, 2), 4096)
    assert fabric.stats.transfers == 1
    assert fabric.stats.conflicted_transfers == 0
    assert fabric.stats.scout_failures_total == 0
    assert fabric.mean_circuit_hops() >= 2.0
    assert fabric.first_try_success_fraction == 1.0


def test_design_kind():
    _, fabric = make_fabric()
    assert fabric.design is DesignKind.VENICE
