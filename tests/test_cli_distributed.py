"""CLI tests for queued sweeps, worker/queue subcommands, store maintenance."""

import json

from repro.cli import main
from repro.experiments.queue import WorkQueue
from repro.experiments.spec import ExperimentScale, make_spec

SCALE = ExperimentScale(requests=60, blocks_per_plane=8, pages_per_block=8)


def test_queued_figure_is_byte_identical_to_direct(tmp_path, capsys):
    direct_argv = [
        "figure", "fig9a", "--requests", "60", "--workloads", "proj_3",
        "--json",
    ]
    assert main(direct_argv) == 0
    direct = capsys.readouterr().out

    queued_argv = direct_argv + [
        "--cache", str(tmp_path / "store"),
        "--queue", str(tmp_path / "q"),
        "--lease", "10", "--max-attempts", "2",
    ]
    assert main(queued_argv) == 0
    assert capsys.readouterr().out == direct

    # The queue drained clean and froze the requested policy.
    assert main(["queue", "status", "--queue", str(tmp_path / "q"),
                 "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["done"] == status["tasks"] > 0
    assert status["dead"] == 0
    assert status["lease_seconds"] == 10.0

    # Warm re-run through the same queue: still byte-identical.
    assert main(queued_argv) == 0
    assert capsys.readouterr().out == direct


def test_worker_cli_drains_an_existing_queue(tmp_path, capsys):
    queue = WorkQueue(tmp_path / "q", store_dir=tmp_path / "store")
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    queue.enqueue(spec)
    assert main(["worker", "--queue", str(tmp_path / "q"),
                 "--owner", "cli-test", "--max-tasks", "1", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["owner"] == "cli-test"
    assert stats["completed"] == 1
    assert queue.drained([spec.digest])
    # Human-readable queue status and the empty dead-letter listing.
    assert main(["queue", "status", "--queue", str(tmp_path / "q")]) == 0
    assert "done" in capsys.readouterr().out
    assert main(["queue", "dead", "--queue", str(tmp_path / "q")]) == 0
    assert "no dead-lettered tasks" in capsys.readouterr().out


def test_queue_dead_listing_shows_captured_errors(tmp_path, capsys):
    queue = WorkQueue(
        tmp_path / "q", store_dir=tmp_path / "store", max_attempts=1
    )
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    queue.enqueue(spec)
    queue.fail(queue.claim("w"), "ValueError: synthetic failure")
    assert main(["queue", "dead", "--queue", str(tmp_path / "q")]) == 0
    out = capsys.readouterr().out
    assert spec.digest[:12] in out and "synthetic failure" in out
    assert main(["queue", "dead", "--queue", str(tmp_path / "q"),
                 "--json"]) == 0
    letters = json.loads(capsys.readouterr().out)
    assert letters[spec.digest]["attempts"] == 1


def test_joining_a_nonexistent_queue_fails_cleanly(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["worker", "--queue", missing]) == 2
    assert "no queue.json" in capsys.readouterr().err
    assert main(["queue", "status", "--queue", missing]) == 2
    capsys.readouterr()
    assert main(["worker", "--queue", missing, "--timeout", "0"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_store_maintenance_lifecycle(tmp_path, capsys):
    cache = str(tmp_path)
    run_argv = ["run", "--workload", "hm_0", "--requests", "60", "--json",
                "--cache", cache]
    assert main(run_argv) == 0
    capsys.readouterr()

    # Pristine store: verify passes in both output modes.
    assert main(["store", "verify", "--cache", cache]) == 0
    assert "0 corrupt" in capsys.readouterr().out
    assert main(["store", "verify", "--cache", cache, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["corrupt"] == []

    # Corrupt the entry on disk: verify reports (exit 4), --repair heals.
    entry = next(tmp_path.glob("*.json"))
    payload = json.loads(entry.read_text())
    payload["spec"]["workload"] = "proj_3"
    entry.write_text(json.dumps(payload))
    assert main(["store", "verify", "--cache", cache]) == 4
    out = capsys.readouterr().out
    assert "1 corrupt" in out and "--repair" in out
    assert main(["store", "verify", "--cache", cache, "--repair"]) == 0
    assert "1 quarantined" in capsys.readouterr().out
    assert main(["store", "verify", "--cache", cache]) == 0
    capsys.readouterr()

    # gc drops the quarantined bytes; compact shrinks what remains.
    assert main(["store", "gc", "--cache", cache, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["reclaimed_bytes"] > 0
    assert main(["store", "compact", "--cache", cache]) == 0
    assert "saved_bytes" in capsys.readouterr().out
    assert main(["store", "gc", "--cache", cache]) == 0
    capsys.readouterr()

    # The quarantined digest re-simulates as a miss and the store heals.
    assert main(run_argv) == 0
    capsys.readouterr()
    assert main(["store", "verify", "--cache", cache]) == 0
    assert "1 ok" in capsys.readouterr().out
