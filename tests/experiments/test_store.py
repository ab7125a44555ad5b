"""Result store tests: JSON round-trips, counters, integrity checking,
maintenance (verify/gc/compact), retired layouts, concurrent writers."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.executor import Executor, execute_specs
from repro.experiments.spec import ExperimentScale, make_spec
from repro.experiments.store import ResultStore
from repro.metrics.collector import RunResult

SCALE = ExperimentScale(requests=60, blocks_per_plane=8, pages_per_block=8)
WORKLOADS = ("hm_0", "proj_3", "YCSB_B")


def warm_specs(workload):
    """Two warm-up-bearing specs with distinct checkpoints; every workload
    shares them, as the checkpoint digest leaves the workload out."""
    return [
        make_spec(design, "performance-optimized", workload, SCALE,
                  warmup="fill 0.3")
        for design in ("baseline", "venice")
    ]


def sample_result() -> RunResult:
    return RunResult(
        design="venice",
        config_name="performance-optimized",
        workload="hm_0",
        requests_completed=60,
        execution_time_ns=123_456,
        iops=486_000.25,
        mean_latency_ns=10_500.5,
        p99_latency_ns=99_000.125,
        conflict_fraction=0.25,
        read_fraction=0.6,
        energy_mj=1.5,
        average_power_mw=820.75,
        latency_cdf=[(1000.0, 0.5), (2000.0, 0.99)],
        tail_cdf=[(0.99, 2000.0), (0.999, 3000.0)],
        extra={"fabric_transfers": 120.0, "gc_blocks_reclaimed": 3.0},
    )


def test_round_trip_through_fresh_store_instance(tmp_path):
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    original = sample_result()
    ResultStore(tmp_path).put(spec, original)
    # A brand-new store instance must rebuild the result purely from JSON.
    restored = ResultStore(tmp_path).get(spec)
    assert restored == original
    assert restored.latency_cdf == [(1000.0, 0.5), (2000.0, 0.99)]
    assert restored.tail_cdf == [(0.99, 2000.0), (0.999, 3000.0)]
    assert restored.extra == {"fabric_transfers": 120.0, "gc_blocks_reclaimed": 3.0}


def test_a_store_directory_appears_with_its_first_write(tmp_path):
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    results = ResultStore(tmp_path / "results" / "nested")
    checkpoints = ResultStore(tmp_path / "checkpoints")
    assert results.get(spec) is None
    assert results.stats()["entries"] == len(results) == 0
    assert not (tmp_path / "results").exists()
    results.put(spec, sample_result())
    checkpoints.put_checkpoint("ab" * 32, {"blocks": []})
    assert ResultStore(results.directory).get(spec) == sample_result()
    assert ResultStore(tmp_path / "checkpoints").get_checkpoint(
        "ab" * 32
    ) == {"blocks": []}


def test_a_store_at_or_under_a_regular_file_is_refused(tmp_path):
    (tmp_path / "file").write_text("")
    for path in (tmp_path / "file", tmp_path / "file" / "store"):
        with pytest.raises(ConfigurationError, match="cache directory"):
            ResultStore(path)


def test_run_result_dict_round_trip_is_lossless():
    original = sample_result()
    rebuilt = RunResult.from_dict(json.loads(json.dumps(original.to_dict())))
    assert rebuilt == original


def test_counters_track_hits_and_misses(tmp_path):
    store = ResultStore(tmp_path)
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    assert store.get(spec) is None
    assert (store.hits, store.misses) == (0, 1)
    store.put(spec, sample_result())
    assert store.writes == 1
    assert spec in store
    assert store.get(spec) is not None
    assert store.hits == 1
    assert len(store) == 1


def test_mismatched_entry_is_detected(tmp_path):
    store = ResultStore(tmp_path)
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    path = store.put(spec, sample_result())
    payload = json.loads(path.read_text())
    payload["spec"]["workload"] = "proj_3"  # corrupt the entry on disk
    path.write_text(json.dumps(payload))
    with pytest.raises(SimulationError):
        ResultStore(tmp_path).get(spec)


def test_wrong_schema_entry_is_rejected(tmp_path):
    store = ResultStore(tmp_path)
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    path = store.put(spec, sample_result())
    payload = json.loads(path.read_text())
    payload["schema"] = 99  # a future version's entry
    path.write_text(json.dumps(payload))
    with pytest.raises(SimulationError, match="schema"):
        ResultStore(tmp_path).get(spec)


def test_entry_missing_fields_reports_corruption(tmp_path):
    store = ResultStore(tmp_path)
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    store.path_for(spec).write_text(json.dumps({"schema": 1}))
    with pytest.raises(SimulationError, match="corrupt"):
        store.get(spec)


def make_specs(count=3):
    return [
        make_spec("venice", "performance-optimized", WORKLOADS[i % 3],
                  ExperimentScale(requests=60 + i, blocks_per_plane=8,
                                  pages_per_block=8))
        for i in range(count)
    ]


def corrupt_entry(store, spec):
    """Tamper an entry so its content no longer matches its digest key."""
    path = store.path_for(spec)
    payload = json.loads(path.read_text())
    payload["spec"]["workload"] = "proj_3" if (
        payload["spec"]["workload"] != "proj_3") else "hm_0"
    path.write_text(json.dumps(payload))
    store._memory.clear()


def test_each_entry_is_one_json_file_at_the_top_of_the_store(tmp_path):
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    path = ResultStore(tmp_path).put(spec, sample_result())
    assert path == tmp_path / f"{spec.digest}.json"
    reopened = ResultStore(tmp_path)
    assert reopened.get(spec) == sample_result()
    assert len(reopened) == 1
    assert spec in reopened
    stats = reopened.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] == path.stat().st_size
    assert stats["quarantined"] == 0


def test_verify_reports_and_repair_quarantines(tmp_path):
    store = ResultStore(tmp_path)
    specs = make_specs(3)
    for spec in specs:
        store.put(spec, sample_result())
    corrupt_entry(store, specs[1])

    # verify without repair: reported, nothing moved, entry still corrupt.
    report = ResultStore(tmp_path).verify()
    assert report["checked"] == 3
    assert report["ok"] == 2
    assert report["quarantined"] == 0
    assert [c["digest"] for c in report["corrupt"]] == [specs[1].digest]

    # verify --repair: the corrupt entry is quarantined, never served again.
    repairing = ResultStore(tmp_path)
    report = repairing.verify(repair=True)
    assert report["quarantined"] == 1
    assert (tmp_path / "quarantine" / f"{specs[1].digest}.json").is_file()
    assert repairing.get(specs[1]) is None  # a clean miss now
    assert repairing.get(specs[0]) == sample_result()  # healthy survivors
    assert repairing.stats()["quarantined"] == 1

    # Re-putting the digest heals the store entirely.
    repairing.put(specs[1], sample_result())
    clean = ResultStore(tmp_path).verify()
    assert clean["ok"] == 3 and not clean["corrupt"]


def test_gc_purges_quarantine_and_stale_temp_files(tmp_path):
    store = ResultStore(tmp_path)
    specs = make_specs(2)
    for spec in specs:
        store.put(spec, sample_result())
    corrupt_entry(store, specs[0])
    store.verify(repair=True)
    # A stale write-then-rename leftover from a SIGKILLed writer...
    stale = tmp_path / "deadbeef.json.12345.0a1b2c.tmp"
    stale.write_text("{}")
    os.utime(stale, (1, 1))
    # ...and a fresh one that may belong to a live writer mid-rename.
    fresh = tmp_path / "cafef00d.json.6789.3d4e5f.tmp"
    fresh.write_text("{}")

    report = store.gc()
    assert report["reclaimed_bytes"] > 0
    assert report["temp_files_removed"] == 1
    assert not stale.exists() and fresh.exists()
    assert store.stats()["quarantined"] == 0
    assert store.get(specs[1]) is not None  # healthy entries untouched


def test_compact_preserves_content(tmp_path):
    store = ResultStore(tmp_path)
    specs = make_specs(3)
    for spec in specs:
        store.put(spec, sample_result())
    before = store.stats()["bytes"]
    report = store.compact()
    assert report["saved_bytes"] > 0
    reopened = ResultStore(tmp_path)
    assert len(reopened) == 3
    for spec in specs:
        assert reopened.get(spec) == sample_result()
    assert reopened.stats()["bytes"] == before - report["saved_bytes"]


def test_compact_leaves_unparseable_entries_for_verify(tmp_path):
    store = ResultStore(tmp_path)
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    store.put(spec, sample_result())
    garbage = tmp_path / ("deadbeef" * 8 + ".json")
    garbage.write_text("this is not json")
    store.compact()  # must not crash on, or rewrite, the garbage entry
    assert garbage.read_text() == "this is not json"
    report = store.verify()
    assert [c["digest"] for c in report["corrupt"]] == ["deadbeef" * 8]


def test_verify_repair_and_gc_heal_corrupt_checkpoints(tmp_path):
    execute_specs(warm_specs("hm_0"), store=ResultStore(tmp_path))
    rerun = warm_specs("proj_3")  # new results, the same two warm-ups
    torn, foreign = (
        tmp_path / "checkpoints" / f"{spec.checkpoint_digest}.json"
        for spec in rerun
    )
    torn.write_text(torn.read_text()[:100])
    foreign.write_text(json.dumps({"digest": "0" * 64, "state": {}}))

    # A sweep that needs a corrupt warm-up fails naming file and remedy.
    with pytest.raises(SimulationError, match="store verify --repair") as info:
        execute_specs(rerun, store=ResultStore(tmp_path))
    assert str(torn) in str(info.value)

    report = ResultStore(tmp_path).verify()
    assert (report["checked"], report["ok"], report["quarantined"]) == (4, 2, 0)
    assert sorted(entry["digest"] for entry in report["corrupt"]) == sorted(
        spec.checkpoint_digest for spec in rerun
    )
    assert ResultStore(tmp_path).verify(repair=True)["quarantined"] == 2
    assert (tmp_path / "quarantine" / f"checkpoints-{torn.name}").is_file()
    assert ResultStore(tmp_path).stats()["quarantined"] == 2

    # Quarantined warm-ups read as misses: recomputed and written back.
    executor = Executor()
    healed = ResultStore(tmp_path)
    execute_specs(rerun, executor=executor, store=healed)
    assert (executor.warmups, executor.restores) == (2, 2)
    assert healed.verify()["corrupt"] == []
    assert healed.gc()["reclaimed_bytes"] > 0
    assert list((tmp_path / "quarantine").iterdir()) == []


def test_a_checkpoint_file_in_the_original_format_is_served(tmp_path):
    spec = warm_specs("hm_0")[0]
    state, _ = spec.compute_checkpoint()
    # The bytes every release since checkpoints were added has written.
    legacy = json.dumps({"digest": spec.checkpoint_digest, "state": state})
    path = tmp_path / "checkpoints" / f"{spec.checkpoint_digest}.json"
    path.parent.mkdir()
    path.write_text(legacy)
    executor = Executor()
    results = execute_specs([spec], executor=executor,
                            store=ResultStore(tmp_path))
    assert (executor.warmups, executor.restores) == (0, 1)
    assert results[spec] == spec.execute()
    ResultStore(tmp_path).put_checkpoint(spec.checkpoint_digest, state)
    assert path.read_text() == legacy


def test_quarantining_an_absent_digest_is_a_noop(tmp_path):
    store = ResultStore(tmp_path)
    store._quarantine(tmp_path / ("feedface" * 8 + ".json"))
    assert store.stats()["quarantined"] == 0


@pytest.mark.parametrize("marker,layout", [
    ("store.sqlite3", "sqlite"),
    ("objects", "sharded"),
])
def test_a_retired_layout_is_refused_not_read_as_empty(
    tmp_path, capsys, marker, layout
):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    if layout == "sqlite":
        (store_dir / marker).write_bytes(b"SQLite format 3\x00")
    else:
        (store_dir / marker / "ab").mkdir(parents=True)
    named = f"retired {layout} layout"

    with pytest.raises(ConfigurationError, match=named):
        ResultStore(store_dir)

    assert main(["store", "stats", "--cache", str(store_dir)]) == 2
    assert named in capsys.readouterr().err

    queue_dir = tmp_path / "q"
    assert main([
        "figure", "fig9a", "--requests", "60", "--workloads", "proj_3",
        "--json", "--cache", str(store_dir), "--queue", str(queue_dir),
    ]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and captured.out == ""
    # Nothing was simulated into the directory or bound to it.
    assert not list(store_dir.glob("*.json"))
    assert not (queue_dir / "queue.json").exists()


def _hammer(stores, put, rounds=200):
    """Call ``put(store)`` from one thread per store, all at once, with a
    tiny switch interval; return every exception the calls raised."""
    errors = []

    def writer(store):
        for _ in range(rounds):
            try:
                put(store)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [
            threading.Thread(target=writer, args=(store,)) for store in stores
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    return errors


def test_threads_putting_one_digest_never_collide(tmp_path):
    spec = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    # One store per thread, as the service's worker threads hold them.
    stores = [ResultStore(tmp_path), ResultStore(tmp_path)]
    assert _hammer(stores, lambda store: store.put(spec, sample_result())) == []
    assert ResultStore(tmp_path).get(spec) == sample_result()
    assert not list(tmp_path.glob("*.tmp"))


def test_checkpoint_threads_putting_one_digest_never_collide(tmp_path):
    state = {"blocks": list(range(2000))}
    stores = [ResultStore(tmp_path), ResultStore(tmp_path)]
    assert _hammer(
        stores, lambda store: store.put_checkpoint("d" * 64, state)
    ) == []
    assert ResultStore(tmp_path).get_checkpoint("d" * 64) == state
    assert not list(tmp_path.rglob("*.tmp"))


_WRITER_SCRIPT = """
import sys
from repro.experiments.spec import ExperimentScale, make_spec
from repro.experiments.store import ResultStore
from test_store import sample_result

directory, own, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ResultStore(directory)
for i in range(count):
    # Alternate a digest only this process writes with one every
    # process writes.
    for requests in (1000 * (own + 1) + i, i):
        spec = make_spec(
            "venice", "performance-optimized", "hm_0",
            ExperimentScale(requests=60 + requests, blocks_per_plane=8,
                            pages_per_block=8),
        )
        store.put(spec, sample_result())
"""


def test_concurrent_writer_processes_lose_nothing(tmp_path):
    """Four processes write one store, to distinct and to shared digests."""
    env = dict(os.environ)
    src = Path(repro.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)]  # repro package + this test dir's helpers
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path),
             str(own), "25"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for own in range(4)
    ]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr.decode()

    store = ResultStore(tmp_path)
    assert len(store) == 4 * 25 + 25  # every own digest plus the shared ones
    report = store.verify()
    assert report["ok"] == report["checked"] == 125
    assert not report["corrupt"]  # nothing torn
    assert not list(tmp_path.glob("*.tmp"))
