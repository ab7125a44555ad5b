"""CLI sustained-write surface: ``ftl sweep`` and the ``run`` FTL knobs."""

import hashlib
import json

from repro.cli import main

TINY = [
    "ftl", "sweep", "--requests", "120",
    "--fills", "0.5", "--op", "0.07", "--fill", "0.5",
]


def test_ftl_sweep_tables(capsys):
    assert main(TINY) == 0
    out = capsys.readouterr().out
    assert "write cliff: throughput (IOPS)" in out
    assert "write cliff: GC stall time (us)" in out
    assert "write amplification vs OP" in out
    assert "GC x faults" in out
    assert "venice" in out and "baseline" in out


def test_ftl_sweep_json_and_cache(tmp_path, capsys):
    args = TINY + ["--json", "--cache", str(tmp_path / "store")]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["experiment"] == "ftl-sweep"
    assert cold["workload"] == "prxy_0"
    assert set(cold["write_cliff"]) == set(cold["designs"])
    assert main(args) == 0  # warm re-run served from the store
    warm = json.loads(capsys.readouterr().out)
    assert cold["write_cliff"] == warm["write_cliff"]
    assert cold["wa_op"] == warm["wa_op"]
    assert cold["gc_faults"] == warm["gc_faults"]


#: sha256 of the canonical JSON of the sweep's result sections: five
#: fabrics, churned restores, write stalls and multi-plane writes.
PINNED_SWEEP_SHA = (
    "c6c42af9447acceb4f8d776bb1766a3871bfa47efb246b49ab6843d67a69b0b5"
)


def test_ftl_sweep_results_are_pinned(capsys):
    args = [
        "ftl", "sweep", "--requests", "120", "--fills", "0.5", "0.85",
        "--fill", "0.5", "--op", "0.07", "0.35", "--json",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    sections = {
        key: payload[key] for key in ("write_cliff", "wa_op", "gc_faults")
    }
    canonical = json.dumps(sections, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_SWEEP_SHA


def test_ftl_sweep_runs_a_table3_mix(tmp_path, capsys):
    store = tmp_path / "store"
    args = [
        "ftl", "sweep", "--workload", "mix1", "--requests", "40",
        "--fills", "0.5", "--fill", "0.5", "--op", "0.07",
        "--json", "--cache", str(store),
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "mix1"
    for cells in payload["write_cliff"].values():
        assert cells[0]["iops"] > 0
    specs = [
        json.loads(path.read_text())["spec"] for path in store.glob("*.json")
    ]
    assert specs and all(
        spec["mix"] and spec["workload"] == "mix1" for spec in specs
    )


def test_ftl_sweep_rejects_bad_knob_values(capsys):
    assert main(TINY + ["--op", "0.9"]) == 2
    assert "over_provisioning" in capsys.readouterr().err


def test_run_accepts_ftl_knobs(capsys):
    code = main(
        [
            "run", "--requests", "100", "--json",
            "--wear-leveling", "--over-provisioning", "0.2",
            "--gc-threshold", "0.1", "--gc-stop", "0.15",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["requests"] == 100


def test_run_knob_flags_default_to_no_op(capsys):
    """A knob-free `run` must behave exactly as before the flags existed."""
    assert main(["run", "--requests", "100", "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["run", "--requests", "100", "--json"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert plain == again
