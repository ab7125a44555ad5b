"""RunSpec tests: digest stability, round-tripping, normalisation."""

import pytest

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.spec import (
    ALL_DESIGNS,
    ExperimentScale,
    RunSpec,
    make_spec,
    matrix_specs,
)

SCALE = ExperimentScale(requests=60, blocks_per_plane=8, pages_per_block=8)


def test_equal_specs_share_a_digest():
    first = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    second = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    assert first == second
    assert hash(first) == hash(second)
    assert first.digest == second.digest


def test_digest_survives_dict_round_trip():
    spec = make_spec(
        DesignKind.VENICE,
        "performance-optimized",
        "mix1",
        SCALE,
        with_cdf=True,
        geometry=(4, 16),
        enable_wear_leveling=True,
    )
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.digest == spec.digest


def test_preset_aliases_share_one_identity():
    # 'perf' and 'performance-optimized' build the same config, so they must
    # digest identically or identical runs would miss the cache.
    abbreviated = make_spec("venice", "perf", "hm_0", SCALE)
    canonical = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    assert abbreviated == canonical
    assert abbreviated.digest == canonical.digest
    assert abbreviated.preset == "performance-optimized"
    with pytest.raises(ConfigurationError):
        make_spec("venice", "ultra-optimized", "hm_0", SCALE)


def test_device_kwarg_order_is_irrelevant():
    first = make_spec(
        "venice", "perf", "hm_0", SCALE,
        enable_wear_leveling=True, over_provisioning=0.2,
    )
    second = make_spec(
        "venice", "perf", "hm_0", SCALE,
        over_provisioning=0.2, enable_wear_leveling=True,
    )
    assert first == second
    assert first.digest == second.digest


@pytest.mark.parametrize(
    "override",
    [
        {"design": "ideal"},
        {"workload": "proj_3"},
        {"preset": "cost-optimized"},
        {"enable_wear_leveling": True},  # a device kwarg
        {"with_cdf": True},
        {"geometry": (4, 16)},
        {"scale": ExperimentScale(requests=61, blocks_per_plane=8, pages_per_block=8)},
    ],
)
def test_any_field_change_changes_the_digest(override):
    base = dict(
        design="venice", preset="performance-optimized", workload="hm_0",
        scale=SCALE,
    )
    spec = make_spec(**base)
    changed = make_spec(**{**base, **override})
    assert changed.digest != spec.digest


def test_unknown_design_rejected_eagerly():
    with pytest.raises(ConfigurationError):
        make_spec("warp-drive", "performance-optimized", "hm_0", SCALE)


def test_non_scalar_device_kwargs_rejected():
    with pytest.raises(ConfigurationError, match="JSON scalar"):
        make_spec(
            "venice", "perf", "hm_0", SCALE,
            over_provisioning={"not": "a scalar"},
        )


@pytest.mark.parametrize(
    "name", ["enable_gc", "exact_stats", "multi_plane_writes", "queue_pairs"]
)
def test_unknown_device_kwargs_rejected(name):
    # A name the device does not take as a spec option fails when the spec
    # is built, not later inside a worker.
    with pytest.raises(ConfigurationError, match=name):
        make_spec("venice", "perf", "hm_0", SCALE, **{name: False})
    payload = make_spec("venice", "perf", "hm_0", SCALE).to_dict()
    payload["device_kwargs"] = {name: False}
    with pytest.raises(ConfigurationError, match=name):
        RunSpec.from_dict(payload)


def test_geometry_override_applies_to_config():
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE,
                     geometry=(4, 16))
    config = spec.build_config()
    assert config.geometry.channels == 4
    assert config.geometry.chips_per_channel == 16
    assert config.geometry.total_chips == 64


def test_matrix_specs_skips_pnssd_on_rectangular_arrays():
    specs = matrix_specs(
        "performance-optimized", ("hm_0",), SCALE, ALL_DESIGNS, geometry=(4, 16)
    )
    designs = {spec.design for spec in specs}
    assert "pnssd" not in designs
    assert {"baseline", "venice", "ideal"} <= designs


def test_pnssd_spec_on_rectangular_array_refuses_to_execute():
    spec = make_spec("pnssd", "performance-optimized", "hm_0", SCALE,
                     geometry=(4, 16))
    with pytest.raises(ConfigurationError):
        spec.execute()


def test_specs_deduplicate_as_dict_keys():
    specs = [
        make_spec("venice", "perf", "hm_0", SCALE),
        make_spec("venice", "perf", "hm_0", SCALE),
        make_spec("ideal", "perf", "hm_0", SCALE),
    ]
    assert len(dict.fromkeys(specs)) == 2


def test_make_spec_accepts_amortization_objects():
    from repro.sim.checkpoint import WarmupPhase
    from repro.sim.convergence import EarlyStopPolicy
    from repro.sim.faults import FaultSchedule

    scale = ExperimentScale(requests=60, blocks_per_plane=8,
                            pages_per_block=8)
    from_strings = make_spec(
        "venice", "performance-optimized", "hm_0", scale,
        faults="0 link (0,1)-(0,2) down",
        warmup="fill 0.5; steps 100",
        early_stop="window 40; tolerance 0.02; patience 2; min 80",
    )
    from_objects = make_spec(
        "venice", "performance-optimized", "hm_0", scale,
        faults=FaultSchedule.parse("0 link (0,1)-(0,2) down"),
        warmup=WarmupPhase(fill=0.5, steps=100),
        early_stop=EarlyStopPolicy(window=40, tolerance=0.02, patience=2,
                                   min_requests=80),
    )
    assert from_objects == from_strings
    assert from_objects.digest == from_strings.digest


#: The scale and clause strings of the pinned digests below.
PIN_SCALE = ExperimentScale(
    requests=120,
    requests_per_mix_constituent=40,
    blocks_per_plane=16,
    pages_per_block=16,
)
PIN_FAULTS = "100us link (0,1)-(0,2) down; 400us link (0,1)-(0,2) up"
PIN_WARMUP = "fill 0.5; churn 0.2"
PIN_EARLY_STOP = "window 60; tolerance 0.03; patience 2; min 240"


def test_clause_digest_is_pinned():
    spec = make_spec(
        "venice", "performance-optimized", "hm_0", PIN_SCALE,
        faults=PIN_FAULTS, warmup=PIN_WARMUP, early_stop=PIN_EARLY_STOP,
    )
    assert spec.digest == (
        "e72ba94a1235d0a06b3b960b6a12c2b7ec49ebf07b4369ed01bad6698d0303dd"
    )


def test_mix_follows_from_the_workload_name():
    spec = make_spec("baseline", "performance-optimized", "mix1", PIN_SCALE)
    assert spec.mix is True
    assert spec.digest == (
        "067cc820a09f4bd1539c922685b07f79452b9792e72b49fc2fb9e97186dc64b6"
    )
    plain = make_spec("baseline", "performance-optimized", "hm_0", PIN_SCALE)
    assert plain.mix is False


#: Engine events of each performance-optimized hm_0/YCSB_B cell at 100
#: requests and seed 42.  The digest pins prove outputs unchanged; this
#: pins the scheduler work that produced them.
PINNED_EVENTS = {
    ("hm_0", "baseline"): 1020,
    ("hm_0", "pssd"): 1020,
    ("hm_0", "pnssd"): 1020,
    ("hm_0", "nossd"): 5704,
    ("hm_0", "venice"): 1197,
    ("hm_0", "ideal"): 1020,
    ("YCSB_B", "baseline"): 8329,
    ("YCSB_B", "pssd"): 8329,
    ("YCSB_B", "pnssd"): 8329,
    ("YCSB_B", "nossd"): 60161,
    ("YCSB_B", "venice"): 9957,
    ("YCSB_B", "ideal"): 8329,
}


def test_engine_events_per_cell_are_pinned():
    specs = matrix_specs(
        "performance-optimized", ("hm_0", "YCSB_B"),
        ExperimentScale.for_requests(100, 42),
    )
    events = {
        (spec.workload, spec.design): spec.execute_instrumented()[1]["events"]
        for spec in specs
    }
    assert events == PINNED_EVENTS
    assert sum(events.values()) == 114_415


def test_clause_table_names_every_string_clause():
    from repro.experiments.spec import SPEC_CLAUSES

    # Table order is payload key order, which store entries are written in.
    assert list(SPEC_CLAUSES) == [
        "faults", "fleet", "warmup", "early_stop", "qos",
    ]
    # An empty clause stays out of the payload; a set one is canonical.
    bare = make_spec("venice", "perf", "hm_0", SCALE)
    assert not set(SPEC_CLAUSES) & set(bare.to_dict())
    spaced = make_spec(
        "venice", "perf", "hm_0", SCALE, warmup=" steps 9 ;fill 0.5"
    )
    assert spaced.to_dict()["warmup"] == "fill 0.5; steps 9"
