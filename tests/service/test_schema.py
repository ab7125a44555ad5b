"""Submission schema: payload -> Job is pure, canonical, and reversible."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.service.schema import (
    JOB_KINDS,
    job_from_payload,
    job_from_record,
)


def test_run_job_id_is_the_spec_digest():
    job = job_from_payload(
        {"design": "venice", "workload": "hm_0", "requests": 80, "seed": 5}
    )
    assert job.kind == "run"
    assert len(job.specs) == 1
    assert job.job_id == job.specs[0].digest
    assert job.specs[0].design == "venice"
    assert job.specs[0].scale.requests == 80
    assert job.specs[0].scale.seed == 5


def test_submission_is_a_pure_function_of_the_payload():
    payload = {"kind": "sweep", "designs": ["venice", "baseline"],
               "workloads": ["hm_0"], "requests": 60}
    first = job_from_payload(payload)
    second = job_from_payload(dict(payload))
    assert first.job_id == second.job_id
    assert first.specs == second.specs
    # Any semantic change moves the id.
    changed = job_from_payload({**payload, "requests": 61})
    assert changed.job_id != first.job_id


def test_defaults_give_the_canonical_single_run():
    job = job_from_payload({})
    assert job.kind == "run"
    assert job.specs[0].design == "venice"
    assert job.specs[0].workload == "hm_0"
    assert job.specs[0].preset == "performance-optimized"


def test_mix_workloads_resolve_as_mixes():
    job = job_from_payload({"workload": "mix1", "requests": 60})
    assert job.specs[0].mix is True


def test_sweep_is_the_designs_by_workloads_cross_product():
    job = job_from_payload(
        {
            "kind": "sweep",
            "designs": ["venice", "baseline"],
            "workloads": ["hm_0", "mds_0"],
            "requests": 60,
        }
    )
    cells = [(spec.design, spec.workload) for spec in job.specs]
    assert cells == [
        ("venice", "hm_0"), ("baseline", "hm_0"),
        ("venice", "mds_0"), ("baseline", "mds_0"),
    ]
    assert "2 designs x 2 workloads" in job.label


def test_fleet_job_id_is_the_fleet_digest():
    job = job_from_payload(
        {"kind": "fleet", "design": "venice", "devices": 3, "tenants": 4,
         "requests": 60}
    )
    assert job.fleet is not None
    assert job.job_id == job.fleet.digest
    assert len(job.specs) == 3
    assert job.fleet.tenants == 4


def test_fleet_accepts_explicit_member_designs():
    job = job_from_payload(
        {"kind": "fleet", "designs": ["venice", "baseline"], "requests": 60}
    )
    assert [spec.design for spec in job.specs] == ["venice", "baseline"]
    with pytest.raises(ConfigurationError, match="not both"):
        job_from_payload(
            {"kind": "fleet", "design": "venice", "designs": ["venice"]}
        )


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([1, 2], "JSON object"),
        ({"kind": "banana"}, "banana"),
        ({"desing": "venice"}, "desing"),
        ({"design": 7}, "must be a string"),
        ({"requests": "many"}, "must be an integer"),
        ({"requests": True}, "must be an integer"),
        ({"requests": 0}, ">= 1"),
        ({"seed": -1}, ">= 0"),
        ({"kind": "sweep", "designs": []}, "non-empty list"),
        ({"kind": "sweep", "workloads": [3]}, "non-empty list"),
        ({"kind": "fleet", "warmup": "x"}, "warmup"),
        ({"kind": "fleet", "early_stop": "x"}, "early_stop"),
        ({"kind": "fleet", "devices": 0}, ">= 1"),
    ],
)
def test_malformed_payloads_raise_configuration_errors(payload, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        job_from_payload(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"workload": "bogus"},
        {"kind": "sweep", "workloads": ["hm_0", "bogus"]},
        {"kind": "fleet", "workload": "bogus"},
    ],
    ids=JOB_KINDS,
)
def test_unknown_workloads_are_rejected_at_submission(payload):
    with pytest.raises(WorkloadError, match="unknown workload 'bogus'"):
        job_from_payload(payload)


@pytest.mark.parametrize(
    "payload, copies",
    [
        ({"design": "venice", "workload": "hm_0", "requests": 60}, {}),
        ({"kind": "sweep", "designs": ["venice", "baseline"],
          "workloads": ["hm_0"], "requests": 60}, {}),
        ({"kind": "fleet", "design": "venice", "devices": 2, "tenants": 3,
          "sample": 0, "requests": 60}, {}),
        # Older fleet records also persisted the shape the members carry.
        ({"kind": "fleet", "design": "venice", "devices": 2, "tenants": 3,
          "qos": "wfq:1,2,1", "burst": "1x4", "requests": 60},
         {"placement": "round-robin", "tenants": 3, "qos": "wfq:1,2,1",
          "burst": "1x4"}),
    ],
    ids=[*JOB_KINDS, "fleet-with-copies"],
)
def test_canonical_records_round_trip(payload, copies):
    """job_from_record is the lossless inverse -- a restarted daemon
    re-executes exactly what was accepted."""
    job = job_from_payload(payload)
    record = {**job.canonical, **copies}
    rebuilt = job_from_record(job.job_id, record)
    assert rebuilt.job_id == job.job_id
    assert rebuilt.kind == job.kind
    assert rebuilt.specs == job.specs
    assert rebuilt.canonical == record
    if job.fleet is not None:
        assert rebuilt.fleet.digest == job.fleet.digest


_PIN_FAULTS = "100us link (0,1)-(0,2) down; 400us link (0,1)-(0,2) up"


@pytest.mark.parametrize(
    "payload, job_id",
    [
        (
            {"kind": "sweep", "designs": ["baseline", "venice"],
             "workloads": ["hm_0", "mix1"], "requests": 120, "seed": 7,
             "faults": _PIN_FAULTS, "warmup": "fill 0.5; churn 0.2",
             "early_stop": "window 60; tolerance 0.03; patience 2; min 240"},
            "36a4497f7fda378996e6afb6f7d5992f30c5ba35e622fe2d3e41fb9f6e9388b0",
        ),
        (
            {"kind": "fleet", "design": "venice", "devices": 4, "tenants": 4,
             "workload": "mix2", "requests": 120, "qos": "wfq:2,1,1,1",
             "burst": "0x2", "faults": "0 link (0,1)-(0,2) down"},
            "39da203344a1433a6f7b0d2c6208cdaae57f81a68e180bb29e88612c93e30c88",
        ),
        (
            {"kind": "run", "design": "pssd", "workload": "mix3",
             "requests": 90, "seed": 3},
            "aab4d93cec29358d772ccc7b67c79c52f4ac3ce25973d3aa64339019aa510909",
        ),
    ],
    ids=["sweep", "fleet", "run"],
)
def test_job_ids_are_pinned(payload, job_id):
    """Clauses and mix workloads resolve to the same job ids as ever."""
    assert job_from_payload(payload).job_id == job_id
