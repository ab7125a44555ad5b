"""Sustained-write sweep: curves, knob plumbing, and the no-op guarantee."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.ftl import (
    DEFAULT_FILL_LEVELS,
    DEFAULT_OP_LEVELS,
    run_ftl_sweep,
    sustained_scale,
    wa_op_specs,
    write_cliff_specs,
)
from repro.experiments.spec import (
    ExperimentScale,
    build_config,
    make_spec,
    matrix_specs,
)
from repro.experiments.store import ResultStore
from repro.ftl.allocator import AllocationStrategy
from repro.sim.checkpoint import snapshot_device
from repro.ssd.device import SsdDevice

SCALE = ExperimentScale(
    requests=80,
    requests_per_mix_constituent=40,
    blocks_per_plane=16,
    pages_per_block=16,
)

SWEEP_DESIGNS = (DesignKind.BASELINE, DesignKind.VENICE)
SWEEP_FILLS = (0.7, 0.85)
SWEEP_OPS = (0.07, 0.35)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One cold sweep, shared by the curve assertions below."""
    store_dir = tmp_path_factory.mktemp("ftl-sweep") / "store"
    executor = Executor()
    payload = run_ftl_sweep(
        designs=SWEEP_DESIGNS,
        fill_levels=SWEEP_FILLS,
        op_levels=SWEEP_OPS,
        executor=executor,
        store=ResultStore(store_dir),
    )
    return payload, executor, store_dir


# --------------------------------------------------------------------- #
# the curves
# --------------------------------------------------------------------- #


def test_write_cliff_throughput_drop_coincides_with_gc_stalls(sweep):
    payload, _, _ = sweep
    for design in payload["designs"]:
        shoulder, cliff = payload["write_cliff"][design]
        assert shoulder["fill"] < cliff["fill"]
        assert cliff["gc_stall_ns"] > shoulder["gc_stall_ns"]
        assert cliff["gc_write_stalls"] > 0
        assert cliff["iops"] < shoulder["iops"]
        assert cliff["write_amplification"] > shoulder["write_amplification"]


def test_write_amplification_decreases_with_over_provisioning(sweep):
    payload, _, _ = sweep
    for design in payload["designs"]:
        curve = payload["wa_op"][design]
        was = [cell["write_amplification"] for cell in curve]
        assert all(wa >= 1.0 for wa in was)
        assert was == sorted(was, reverse=True)  # monotone decreasing
        assert was[0] > was[-1]  # and strictly, across the full range
        # With ample spare area GC never has to run mid-measurement.
        assert curve[-1]["gc_stall_ns"] == 0.0


def test_gc_faults_cells_have_histogram_tails(sweep):
    payload, _, _ = sweep
    for design in payload["designs"]:
        cell = payload["gc_faults"][design]
        assert cell["clean"]["p999_latency_ns"] > 0
        assert cell["faulted"]["p999_latency_ns"] > 0
        assert cell["p999_ratio"] > 0
    assert payload["faulted_links"] == 1
    assert len(payload["links"]) == 1


def test_sweep_shares_warmup_checkpoints_across_cells(sweep):
    payload, executor, _ = sweep
    counters = payload["checkpoints"]
    # 5 warm-up recipes per design (2 cliff fills, 2 OP levels, 1 GC cell
    # recipe shared by its clean and faulted variants), each restored by
    # at least 2 cells somewhere in the matrix.
    designs = len(payload["designs"])
    assert counters["writes"] == 5 * designs
    # Every cell restores a checkpoint: 6 cells per design (2 cliff fills,
    # 2 OP levels, clean + faulted GC cells).
    assert counters["hits"] == 6 * designs
    assert counters["hits"] >= 2 * designs
    assert executor.runs_completed == 6 * designs


def test_warm_rerun_simulates_nothing(sweep):
    payload, _, store_dir = sweep
    warm_executor = Executor()
    second = run_ftl_sweep(
        designs=SWEEP_DESIGNS,
        fill_levels=SWEEP_FILLS,
        op_levels=SWEEP_OPS,
        executor=warm_executor,
        store=ResultStore(store_dir),
    )
    assert warm_executor.runs_completed == 0
    first_curves = {k: payload[k] for k in ("write_cliff", "wa_op", "gc_faults")}
    second_curves = {k: second[k] for k in ("write_cliff", "wa_op", "gc_faults")}
    assert first_curves == second_curves


def test_parallel_sweep_returns_the_serial_payload():
    """Restores are counted where runs are dispatched, so the checkpoint
    section of a pooled sweep reads as the serial one does."""
    kwargs = dict(
        scale=sustained_scale(requests=60),
        designs=SWEEP_DESIGNS,
        fill_levels=(0.5,),
        wa_fill=0.5,
        op_levels=(0.07,),
    )
    serial = run_ftl_sweep(**kwargs)
    assert serial["checkpoints"] == {"hits": 8, "misses": 0, "writes": 6}
    assert run_ftl_sweep(executor=Executor(2), **kwargs) == serial


# --------------------------------------------------------------------- #
# spec plumbing for the new knobs
# --------------------------------------------------------------------- #


def test_plan_builders_dedupe_and_share_warmups():
    cliff = write_cliff_specs(
        "performance-optimized", "prxy_0", SCALE, (0.5, 0.5, 0.7),
        designs=SWEEP_DESIGNS,
    )
    assert sorted(cliff) == [0.5, 0.7]
    warmups = {spec.warmup for spec in cliff[0.5]}
    assert warmups == {"fill 0.5; churn 0.35"}
    wa = wa_op_specs(
        "performance-optimized", "prxy_0", SCALE, op_levels=(0.2,),
        designs=SWEEP_DESIGNS,
    )
    for spec in wa[0.2]:
        assert dict(spec.device_kwargs)["over_provisioning"] == 0.2


def test_ftl_knobs_join_the_digest_and_reach_the_device():
    plain = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    knobbed = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        over_provisioning=0.2,
        gc_threshold_free_fraction=0.1,
        gc_stop_free_fraction=0.15,
    )
    assert knobbed.digest != plain.digest
    device = knobbed._build_device(knobbed.build_config(), with_faults=False)
    assert device.config.over_provisioning == 0.2
    assert device.config.gc_threshold_free_fraction == 0.1
    assert device.config.gc_stop_free_fraction == 0.15


def test_wear_leveling_knob_joins_the_digest_and_arms_the_leveler():
    plain = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    leveled = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        enable_wear_leveling=True,
    )
    assert leveled.digest != plain.digest
    device = leveled._build_device(leveled.build_config(), with_faults=False)
    assert device.wear_leveler.enabled
    plain_device = plain._build_device(plain.build_config(), with_faults=False)
    assert not plain_device.wear_leveler.enabled


def test_bad_knob_values_fail_at_config_validation():
    spec = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        over_provisioning=0.9,
    )
    with pytest.raises(ConfigurationError):
        spec.execute()


def test_default_levels_are_sane():
    assert DEFAULT_FILL_LEVELS == tuple(sorted(DEFAULT_FILL_LEVELS))
    assert DEFAULT_OP_LEVELS == tuple(sorted(DEFAULT_OP_LEVELS))
    assert sustained_scale().blocks_per_plane == 16


# --------------------------------------------------------------------- #
# the no-op guarantee: knob-free specs and results are byte-identical
# --------------------------------------------------------------------- #

# Frozen on the pre-knob main branch; these digests cover the full
# fig-matrix spec surface and one executed result.  Any drift means a
# knob-free run no longer reproduces the repo's published numbers.
PINNED_MATRIX_DIGEST = (
    "04cd1d72f8491b18f92505896b2937c0d8750bea04c63b655bb4314f1d607067"
)
PINNED_SPEC_DIGEST = (
    "04d85fdcbfcc857180a2d0cbfe0d58b922202dcee556e02d6d0e5e52d3d63f63"
)
PINNED_RESULT_SHA = (
    "5f001576c73c39a6c52360e7363085dbf71b24087516d2a0b034ba185e42e7cd"
)
PINNED_WARM_SPEC_DIGEST = (
    "594e78789924990033ca945a1894e49ede1df579a913bbb43d1c400949920550"
)
PINNED_CHECKPOINT_DIGEST = (
    "9eebccf2d4fcfde3fd8a5af2859a08c90daa57eb5681bb36a58e91db3617ccc7"
)
# sha256 of the canonical JSON of warm-up snapshots on the GC path: the
# churned one has erased 768 blocks, so it pins the
# allocator's least-worn choice; the stepped one pins timed warm-up writes.
PINNED_WARMUP_STATE_SHAS = {
    "fill 0.85; churn 0.35": (
        "d03fff64c60a206d2c3a020186814954c64a98844a09b3cc3b123ddc4ee02f4d"
    ),
    "fill 0.8; steps 2000": (
        "d928b0796d94a0907d79c636e30c9ccddfea8b27214318e4d23817fad0c4e85e"
    ),
}


def test_knob_free_spec_digests_match_pre_knob_main():
    from repro.experiments.faults import SWEEP_DESIGNS as FIVE_FABRICS

    specs = matrix_specs(
        "performance-optimized",
        ("hm_0", "prxy_0"),
        SCALE,
        FIVE_FABRICS,
    )
    # src1_2 is not a Table 2 trace, and make_spec refuses it.  The pinned
    # row is the spec that name had before make_spec checked names: the
    # hm_0 row with its workload renamed.
    specs += tuple(replace(spec, workload="src1_2") for spec in specs[:5])
    joined = "\n".join(spec.digest for spec in specs)
    assert hashlib.sha256(joined.encode()).hexdigest() == PINNED_MATRIX_DIGEST
    venice_hm0 = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    assert venice_hm0.digest == PINNED_SPEC_DIGEST


def test_knob_free_result_payload_matches_pre_knob_main():
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    result = execute_specs([spec])[spec]
    payload = json.dumps(result.to_dict(), sort_keys=False)
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_RESULT_SHA


def test_churn_free_warmup_digests_match_pre_churn_main():
    spec = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE,
        warmup="fill 0.3; steps 120",
    )
    assert spec.digest == PINNED_WARM_SPEC_DIGEST
    assert spec.checkpoint_digest == PINNED_CHECKPOINT_DIGEST


# The same hash of a baseline device's snapshot after precondition(fill)
# and churn(churn), for the allocation strategies the pins above leave
# out, and for a full fill whose heavy churn compacts hard: 251,566
# allocations, and 2,036 of the 2,048 blocks erased at least once.
PINNED_CHURNED_STATE_SHAS = {
    (AllocationStrategy.WCDP, 0.85, 0.35): (
        "5beb391950fc584ed6992775beb47136dd3d53c9781cf3a3000991c05dfa8336"
    ),
    (AllocationStrategy.RANDOM, 0.85, 0.35): (
        "fcfbcb0d6d063103385f0e4b19a0ed6a3de332c5148e16a95ccad79b6e3e33ab"
    ),
    (AllocationStrategy.CWDP, 1.0, 0.5): (
        "548ff2e416dc000d9d70686ba9aff68eb5a6e5fdbebb529cd9851fd3497d683c"
    ),
}


def _state_sha(state):
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("warmup", sorted(PINNED_WARMUP_STATE_SHAS))
def test_warmup_snapshots_match_pinned_state(warmup):
    spec = make_spec(
        "baseline", "performance-optimized", "hm_0", SCALE, warmup=warmup
    )
    state, _ = spec.compute_checkpoint()
    assert _state_sha(state) == PINNED_WARMUP_STATE_SHAS[warmup]


@pytest.mark.parametrize(
    "strategy, fill, churn",
    list(PINNED_CHURNED_STATE_SHAS),
    ids=["wcdp", "random", "cwdp-full-fill"],
)
def test_churned_snapshots_match_pinned_state(strategy, fill, churn):
    device = SsdDevice(
        build_config("performance-optimized", SCALE),
        DesignKind.BASELINE,
        allocation=strategy,
    )
    device.precondition(fill)
    device.churn(churn)
    assert (
        _state_sha(snapshot_device(device))
        == PINNED_CHURNED_STATE_SHAS[strategy, fill, churn]
    )
