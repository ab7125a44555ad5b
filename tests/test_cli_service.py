"""CLI surface around the service: serve flag validation plus the
machine-readable contracts scripts and CI consume (`list --json`,
`queue status --json`)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.queue import WorkQueue
from repro.experiments.spec import ExperimentScale, make_spec


def test_serve_rejects_bad_flags(tmp_path, capsys):
    state = str(tmp_path / "state")
    assert main(["serve", "--state", state, "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert main(["serve", "--state", state, "--timeout", "-1"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_list_json_is_the_machine_readable_catalog(capsys):
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert sorted(catalog) == [
        "designs", "formats", "mixes", "placements", "presets", "qos",
        "workloads",
    ]
    assert "venice" in catalog["designs"]
    assert "hm_0" in catalog["workloads"]
    assert "mix1" in catalog["mixes"]
    assert all(
        isinstance(name, str) for names in catalog.values() for name in names
    )


def test_list_plain_output_matches_the_catalog(capsys):
    assert main(["list"]) == 0
    plain = capsys.readouterr().out
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    for section, names in catalog.items():
        assert f"{section}:" in plain
        for name in names:
            assert name in plain


def test_queue_status_json_contract(tmp_path, capsys):
    queue_dir = tmp_path / "queue"
    queue = WorkQueue(
        queue_dir,
        store_dir=tmp_path / "store",
        lease_seconds=15.0,
        max_attempts=2,
    )
    spec = make_spec(
        "venice",
        "performance-optimized",
        "hm_0",
        ExperimentScale(requests=40),
    )
    queue.enqueue_specs([spec])

    assert main(
        ["queue", "status", "--queue", str(queue_dir), "--json"]
    ) == 0
    status = json.loads(capsys.readouterr().out)
    # The full machine-readable contract: policy and every task-state
    # counter, so dashboards and CI never have to parse human output.
    assert status["tasks"] == 1
    assert status["ready"] == 1
    assert status["done"] == 0
    assert status["claimed"] == 0
    assert status["dead"] == 0
    assert status["in_backoff"] == 0
    assert status["expired_leases"] == 0
    assert status["lease_seconds"] == 15.0
    assert status["max_attempts"] == 2
    assert status["store_dir"] == str(tmp_path / "store")
    assert status["directory"] == str(queue_dir)
