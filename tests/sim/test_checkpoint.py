"""Device-state checkpointing: grammar, snapshot round-trips, and the
result store's checkpoint entries."""

import json
import re

import pytest

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.spec import ExperimentScale, build_config, make_spec
from repro.experiments.store import ResultStore
from repro.ftl.allocator import AllocationStrategy
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    WarmupPhase,
    restore_device,
    snapshot_device,
)
from repro.ssd.device import SsdDevice

SCALE = ExperimentScale(
    requests=80,
    requests_per_mix_constituent=40,
    blocks_per_plane=16,
    pages_per_block=16,
)


def _spec(design="venice", warmup="fill 0.3; steps 120"):
    return make_spec(design, "performance-optimized", "hm_0", SCALE,
                     warmup=warmup)


def _ppn_holding(state, page_state):
    """Flat page number of the first page the snapshot's blocks hold in
    ``page_state``: ``"i"`` for an invalid page, None for a free one."""
    geometry = state["geometry"]
    blocks_per_plane = geometry["blocks_per_plane"]
    pages_per_block = geometry["pages_per_block"]
    for plane_flat, block, _, pages in state["blocks"]:
        first = (plane_flat * blocks_per_plane + block) * pages_per_block
        if page_state is None and len(pages) < pages_per_block:
            return first + len(pages)
        if page_state is not None and page_state in pages:
            return first + pages.index(page_state)
    raise AssertionError(f"no page in state {page_state!r}")


class TestWarmupPhaseGrammar:
    def test_round_trips_through_canonical_form(self):
        phase = WarmupPhase.parse("  steps 400 ;fill 0.5")
        assert phase == WarmupPhase(fill=0.5, steps=400)
        assert phase.to_spec() == "fill 0.5; steps 400"
        assert WarmupPhase.parse(phase.to_spec()) == phase

    def test_either_clause_may_be_omitted(self):
        assert WarmupPhase.parse("fill 0.25").to_spec() == "fill 0.25"
        assert WarmupPhase.parse("steps 64").to_spec() == "steps 64"

    def test_churn_round_trips_between_fill_and_steps(self):
        phase = WarmupPhase.parse("steps 50; churn 0.4; fill 0.8")
        assert phase == WarmupPhase(fill=0.8, churn=0.4, steps=50)
        assert phase.to_spec() == "fill 0.8; churn 0.4; steps 50"
        assert WarmupPhase.parse(phase.to_spec()) == phase

    def test_zero_churn_is_omitted_from_canonical_form(self):
        assert WarmupPhase.parse("fill 0.5; churn 0").to_spec() == "fill 0.5"
        assert WarmupPhase(fill=0.5).to_spec() == "fill 0.5"

    @pytest.mark.parametrize("bad", [
        "fill 1.5",            # fraction out of range
        "fill -0.1",
        "steps -3",
        "",                    # empty phase: use an empty spec field instead
        "fill 0.5; fill 0.6",  # duplicate clause
        "warm 0.5",            # unknown clause
        "fill lots",           # unparseable value
        "steps 2.5",           # numeric but not an int
        "fill 0.5.5",          # numeric-looking but not a float
        "churn 0.4",           # churn without a fill to churn
        "fill 0.5; churn 1.5",  # churn fraction out of range
        "fill 0.5; churn -0.1",
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigurationError):
            WarmupPhase.parse(bad)


class TestSnapshotRestore:
    def test_snapshot_restores_to_an_identical_snapshot(self):
        spec = _spec()
        state, events = spec.compute_checkpoint()
        assert events > 0
        assert state["version"] == CHECKPOINT_VERSION
        config = spec.build_config()
        device = spec._build_device(config, with_faults=False)
        restore_device(device, state)
        assert snapshot_device(device) == state

    def test_snapshot_is_json_canonical(self):
        # snapshot_device builds its value from JSON-native types and never
        # round-trips it, so a tuple, an int key or a non-bool flag would
        # show up here as a difference from the disk-loaded form.
        state, _ = _spec(warmup="fill 0.2").compute_checkpoint()
        assert json.loads(json.dumps(state)) == state
        device = SsdDevice(
            build_config("performance-optimized", SCALE),
            DesignKind.BASELINE,
            allocation=AllocationStrategy.RANDOM,
        )
        device.precondition(0.85)
        device.churn(0.35)
        churned = snapshot_device(device)
        assert churned["cache"] == []
        assert any("i" in pages for *_, pages in churned["blocks"])
        assert json.loads(json.dumps(churned)) == churned

    def test_restore_rejects_geometry_mismatch(self):
        state, _ = _spec().compute_checkpoint()
        other = make_spec(
            "venice", "performance-optimized", "hm_0",
            ExperimentScale(
                requests=80, requests_per_mix_constituent=40,
                blocks_per_plane=32, pages_per_block=16,
            ),
            warmup="fill 0.3; steps 120",
        )
        device = other._build_device(other.build_config(), with_faults=False)
        with pytest.raises(SimulationError, match="geometry"):
            restore_device(device, state)

    def test_restore_rejects_unknown_version(self):
        spec = _spec(warmup="fill 0.1")
        state, _ = spec.compute_checkpoint()
        device = spec._build_device(spec.build_config(), with_faults=False)
        with pytest.raises(SimulationError, match="version"):
            restore_device(device, {**state, "version": CHECKPOINT_VERSION + 1})

    def test_restore_requires_a_pristine_device(self):
        spec = _spec(warmup="fill 0.1")
        state, _ = spec.compute_checkpoint()
        device = spec._build_device(spec.build_config(), with_faults=False)
        restore_device(device, state)
        with pytest.raises(SimulationError, match="pristine"):
            restore_device(device, state)

    def test_restore_rejects_corrupt_page_states(self):
        spec = _spec(warmup="fill 0.1")
        state, _ = spec.compute_checkpoint()
        tampered = json.loads(json.dumps(state))
        plane, block, erases, pages = tampered["blocks"][0]
        tampered["blocks"][0] = [plane, block, erases, pages[:-1] + "x"]
        device = spec._build_device(spec.build_config(), with_faults=False)
        with pytest.raises(SimulationError, match="bad page states"):
            restore_device(device, tampered)

    def test_churned_snapshot_restores_bit_identically(self):
        spec = _spec(warmup="fill 0.8; churn 0.5; steps 40")
        state, _ = spec.compute_checkpoint()
        device = spec._build_device(spec.build_config(), with_faults=False)
        restore_device(device, state)
        assert snapshot_device(device) == state
        device.ftl.assert_consistent()

    def test_churn_leaves_invalid_pages_behind(self):
        clean, _ = _spec(warmup="fill 0.8").compute_checkpoint()
        churned, _ = _spec(warmup="fill 0.8; churn 0.5").compute_checkpoint()

        def invalid_pages(state):
            return sum(pages.count("i") for _, _, _, pages in state["blocks"])

        # A pure fill writes each logical page once: nothing is stale.  The
        # churn stage overwrites half of them, stranding old copies.
        assert invalid_pages(clean) == 0
        assert invalid_pages(churned) > 0

    def test_churn_is_deterministic(self):
        warmup = "fill 0.85; churn 0.4"
        first, _ = _spec(warmup=warmup).compute_checkpoint()
        second, _ = _spec(warmup=warmup).compute_checkpoint()
        assert first == second

    def test_heavy_churn_compacts_and_keeps_the_gc_reserve(self):
        spec = _spec(warmup="fill 0.95; churn 0.5")
        state, _ = spec.compute_checkpoint()
        # Overwriting half of a 95% fill must recycle blocks (erase counts
        # accrue) ...
        assert any(erases > 0 for _, _, erases, _ in state["blocks"])
        # ... and must hand the measured phase a device whose per-plane GC
        # reserve is intact, or the first host write would deadlock.
        device = spec._build_device(spec.build_config(), with_faults=False)
        restore_device(device, state)
        allocator = device.ftl.allocator
        for plane_flat in range(allocator.plane_count()):
            assert (
                allocator.erased_block_count(plane_flat)
                >= allocator.gc_reserved_blocks
            )

    @pytest.fixture(scope="class")
    def churned_baseline(self):
        spec = _spec(design="baseline", warmup="fill 0.85; churn 0.35")
        state, _ = spec.compute_checkpoint()
        return spec, state

    @pytest.mark.parametrize("path, value, field", [
        (("allocator", "open_blocks", 0, 1), -1, "allocator.open_blocks block"),
        (("allocator", "next_plane"), -1, "allocator.next_plane"),
        (("allocator", "open_blocks", 0, 1), 16, "allocator.open_blocks block"),
        (("allocator", "next_plane"), 10**6, "allocator.next_plane"),
        (("allocator", "open_blocks", 0, 0), 10**6, "allocator.open_blocks plane"),
        (("blocks", 0, 0), -1, "blocks entry"),
    ], ids=[
        "negative-open-block", "negative-next-plane", "open-block-past-end",
        "next-plane-past-end", "open-block-plane-past-end",
        "negative-block-plane",
    ])
    def test_restore_rejects_out_of_range_indices(
        self, churned_baseline, path, value, field
    ):
        # Negative indices would silently pick a plane or block from the
        # end; too-large ones would raise a bare IndexError mid-run.
        spec, state = churned_baseline
        tampered = json.loads(json.dumps(state))
        *parents, last = path
        target = tampered
        for key in parents:
            target = target[key]
        target[last] = value
        device = spec._build_device(spec.build_config(), with_faults=False)
        with pytest.raises(SimulationError, match=re.escape(field)):
            restore_device(device, tampered)

    @pytest.mark.parametrize("column, bad_value, field", [
        (0, lambda state, lpns, pages: lpns + 5, "mapping LPN"),
        (0, lambda state, lpns, pages: -1, "mapping LPN"),
        (1, lambda state, lpns, pages: _ppn_holding(state, "i"), "mapping PPN"),
        (1, lambda state, lpns, pages: _ppn_holding(state, None), "mapping PPN"),
        (1, lambda state, lpns, pages: pages + 3, "mapping PPN"),
    ], ids=[
        "lpn-past-end", "negative-lpn", "ppn-on-invalid-page",
        "ppn-on-free-page", "ppn-past-end",
    ])
    def test_restore_rejects_a_corrupt_mapping(
        self, churned_baseline, column, bad_value, field
    ):
        # The first pair's LPN or PPN is replaced; every other pair and
        # every block stays as snapshotted.
        spec, state = churned_baseline
        device = spec._build_device(spec.build_config(), with_faults=False)
        tampered = json.loads(json.dumps(state))
        tampered["mapping"][0][column] = bad_value(
            tampered,
            device.ftl.logical_pages,
            device.config.geometry.total_pages,
        )
        with pytest.raises(SimulationError, match=re.escape(field)):
            restore_device(device, tampered)

    def test_restore_rejects_two_open_blocks_in_one_plane(self, churned_baseline):
        spec, state = churned_baseline
        tampered = json.loads(json.dumps(state))
        plane_flat, block = tampered["allocator"]["open_blocks"][0]
        tampered["allocator"]["open_blocks"].append([plane_flat, block + 1])
        device = spec._build_device(spec.build_config(), with_faults=False)
        with pytest.raises(SimulationError, match="twice"):
            restore_device(device, tampered)

    def test_restore_rejects_a_nonempty_cache_section(self):
        # The device models no DRAM cache, so a snapshot claiming cache
        # residency cannot be restored faithfully.
        spec = _spec(warmup="fill 0.1")
        state, _ = spec.compute_checkpoint()
        seeded = json.loads(json.dumps(state))
        seeded["cache"] = [[seeded["mapping"][0][0], True]]
        device = spec._build_device(spec.build_config(), with_faults=False)
        with pytest.raises(SimulationError, match="cache section"):
            restore_device(device, seeded)


class TestCheckpointStore:
    """Warm-up snapshots kept as ``checkpoints/<digest>.json`` entries."""

    def test_disk_store_survives_a_fresh_instance(self, tmp_path):
        ResultStore(tmp_path).put_checkpoint("abc", {"blocks": []})
        fresh = ResultStore(tmp_path)
        assert fresh.get_checkpoint("abc") == {"blocks": []}
        assert fresh.get_checkpoint("absent") is None
        assert fresh.stats()["checkpoints"] == 1

    def test_corrupt_file_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_checkpoint("bad", {})
        path = tmp_path / "checkpoints" / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SimulationError, match="corrupt") as excinfo:
            store.get_checkpoint("bad")
        assert str(path) in str(excinfo.value)
        assert "store verify --repair" in str(excinfo.value)

    def test_digest_mismatch_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_checkpoint("y", {})
        (tmp_path / "checkpoints" / "y.json").rename(
            tmp_path / "checkpoints" / "x.json"
        )
        with pytest.raises(SimulationError, match="does not hold"):
            store.get_checkpoint("x")


class TestCheckpointDigest:
    def test_shared_across_workloads_and_faults(self):
        base = _spec()
        other_workload = make_spec(
            "venice", "performance-optimized", "prxy_0", SCALE,
            warmup="fill 0.3; steps 120",
        )
        faulted = make_spec(
            "venice", "performance-optimized", "hm_0", SCALE,
            warmup="fill 0.3; steps 120",
            faults="0 link (0,1)-(0,2) down",
        )
        assert base.checkpoint_digest == other_workload.checkpoint_digest
        assert base.checkpoint_digest == faulted.checkpoint_digest

    def test_differs_by_design_and_recipe(self):
        base = _spec()
        assert base.checkpoint_digest != _spec("nossd").checkpoint_digest
        assert base.checkpoint_digest != (
            _spec(warmup="fill 0.3; steps 121").checkpoint_digest
        )

    def test_requires_a_warmup(self):
        spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
        with pytest.raises(ConfigurationError):
            spec.checkpoint_digest
