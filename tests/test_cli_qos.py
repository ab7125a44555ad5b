"""CLI QoS surface: ``qos sweep``, ``fleet run --qos/--burst``, ``list``."""

import json

from repro.cli import main

TINY = [
    "qos", "sweep", "--requests", "100",
    "--designs", "venice",
    "--placements", "round-robin",
    "--levels", "1", "4",
    "--policies", "none", "token-bucket:1e6,16",
]


def test_qos_sweep_tables(capsys):
    assert main(TINY) == 0
    out = capsys.readouterr().out
    assert "victim p99 (us)" in out
    assert "none (arrival order)" in out
    assert "token-bucket (token-bucket:1e+06,16)" in out
    assert "round-robin" in out


def test_qos_sweep_json_and_cache(tmp_path, capsys):
    args = TINY + ["--json", "--cache", str(tmp_path / "store")]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["experiment"] == "qos-sweep"
    assert cold["workload"] == "hm_0"
    assert cold["levels"] == [1.0, 4.0]
    assert main(args) == 0  # warm re-run served from the store
    warm = json.loads(capsys.readouterr().out)
    assert warm == cold


def test_qos_sweep_runs_a_table3_mix(tmp_path, capsys):
    store = tmp_path / "store"
    args = [
        "qos", "sweep", "--workload", "mix1", "--requests", "40",
        "--designs", "venice", "--placements", "round-robin",
        "--levels", "1", "--policies", "none",
        "--json", "--cache", str(store),
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "mix1"
    cell = payload["curve"]["round-robin"]["none"]["venice"][0]
    assert cell["requests_completed"] > 0
    specs = [
        json.loads(path.read_text())["spec"] for path in store.glob("*.json")
    ]
    assert specs and all(
        spec["mix"] and spec["workload"] == "mix1" for spec in specs
    )


def test_qos_sweep_over_a_mix_runs_the_default_policies(capsys):
    args = [
        "qos", "sweep", "--workload", "mix1", "--requests", "40",
        "--designs", "venice", "--placements", "round-robin",
        "--levels", "1", "--json",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    cells = payload["curve"]["round-robin"]
    assert list(cells) == ["none", "token-bucket", "wfq", "slo"]
    assert all(
        cells[label]["venice"][0]["requests_completed"] > 0 for label in cells
    )


def test_qos_sweep_rejects_bad_policy(capsys):
    assert main(TINY + ["--policies", "warp-speed:9"]) == 2
    assert "policy" in capsys.readouterr().err


def test_fleet_run_accepts_qos_and_burst(capsys):
    code = main(
        [
            "fleet", "run", "--devices", "2", "--tenants", "4",
            "--requests", "100", "--json",
            "--qos", "wfq:1,4,4,4", "--burst", "0x4",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qos"] == "wfq:1,4,4,4"
    assert payload["burst"] == "0x4"
    assert set(payload["tenant_latency"]) == {"0", "1", "2", "3"}


def test_fleet_run_without_qos_emits_no_qos_keys(capsys):
    assert main(
        ["fleet", "run", "--devices", "1", "--requests", "100", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "qos" not in payload
    assert "burst" not in payload
    assert "tenant_latency" not in payload


def test_list_shows_qos_policy_grammar(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "qos:" in out
    assert "token-bucket:<rate>,<burst>" in out
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert "none" in catalog["qos"]
