"""CLI smoke tests."""

import json

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "venice" in out
    assert "hm_0" in out
    assert "mix6" in out


def test_run_command_table_output(capsys):
    code = main(
        ["run", "--design", "baseline", "--workload", "hm_0", "--requests", "60"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "IOPS" in out
    assert "baseline" in out


def test_run_command_json_output(capsys):
    code = main(
        ["run", "--design", "ideal", "--workload", "proj_3", "--requests", "60",
         "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design"] == "ideal"
    assert payload["requests"] == 60
    assert payload["iops"] > 0


def test_compare_command(capsys):
    code = main(["compare", "--workload", "proj_3", "--requests", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "venice" in out


def test_figure_table4(capsys):
    code = main(["figure", "table4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.241" in out


def test_figure_fig13_json(capsys):
    code = main(
        ["figure", "fig13", "--requests", "60", "--workloads", "proj_3", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "fig13"
    assert "venice" in payload["average"]


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_figure_fig11_honors_workloads(capsys):
    code = main(
        ["figure", "fig11", "--requests", "60", "--workloads", "proj_3", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workloads"] == ["proj_3"]
    assert list(payload["p99_ns"]) == ["proj_3"]


def test_figure_fig12_honors_mix_names(capsys):
    code = main(
        ["figure", "fig12", "--requests", "60", "--workloads", "mix2", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mixes"] == ["mix2"]
    assert list(payload["speedups"]) == ["mix2"]


def test_figure_fig12_rejects_trace_names(capsys):
    code = main(["figure", "fig12", "--requests", "60", "--workloads", "hm_0"])
    assert code == 2
    assert "mix names" in capsys.readouterr().err


def test_figure_rejects_empty_workloads_flag(capsys):
    code = main(["figure", "fig13", "--requests", "60", "--workloads"])
    assert code == 2
    assert "at least one name" in capsys.readouterr().err
    code = main(["figure", "fig12", "--requests", "60", "--workloads"])
    assert code == 2
    assert "at least one name" in capsys.readouterr().err


def test_figure_table4_rejects_workloads(capsys):
    code = main(["figure", "table4", "--workloads", "hm_0"])
    assert code == 2
    assert "does not take --workloads" in capsys.readouterr().err


def test_figure_cache_rerun_is_identical(tmp_path, capsys):
    argv = [
        "figure", "fig13", "--requests", "60", "--workloads", "proj_3",
        "--json", "--cache", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    assert len(list(tmp_path.glob("*.json"))) == 5  # fig13's five designs


def test_matrix_command_json(tmp_path, capsys):
    code = main(
        [
            "matrix", "--requests", "60", "--workloads", "proj_3",
            "--figures", "fig9a", "fig13", "table4",
            "--json", "--cache", str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"fig9a", "fig13", "table4"}
    assert payload["fig9a"]["workloads"] == ["proj_3"]
    assert payload["table4"]["table"] == "table4"
    # fig13's runs are a subset of fig9a's matrix: only six specs on disk.
    assert len(list(tmp_path.glob("*.json"))) == 6


def test_matrix_checks_names_before_making_a_directory(tmp_path, capsys):
    for flag in ("--cache", "--queue"):
        target = tmp_path / flag.lstrip("-")
        code = main(
            [
                "matrix", "--figures", "fig13", "--workloads", "mix1",
                flag, str(target),
            ]
        )
        assert code == 2
        assert "unknown: mix1" in capsys.readouterr().err
        assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "fig13", "--requests", "60", "--workloads", "hm_0",
         "--warmup", "bogus 1", "--cache"],
        ["qos", "sweep", "--requests", "40", "--designs", "venice",
         "--placements", "round-robin", "--levels", "1",
         "--policies", "warp-speed:9", "--cache"],
        ["fleet", "sweep", "--requests", "40", "--devices", "2",
         "--placements", "bogus", "--cache"],
        ["matrix", "--figures", "fig13", "--requests", "60", "--workloads",
         "hm_0", "--early-stop", "window 0", "--queue"],
        ["compare", "--workload", "bogus", "--cache"],
        ["faults", "sweep", "--workload", "bogus", "--cache"],
        ["ftl", "sweep", "--workload", "bogus", "--cache"],
        ["fleet", "run", "--workload", "bogus", "--cache"],
        ["run", "--workload", "bogus", "--cache"],
        # Numeric axes and policy lists the library checks while planning.
        pytest.param(
            ["fleet", "sweep", "--requests", "40", "--devices", "0",
             "--cache"],
            id="fleet sweep --devices 0",
        ),
        pytest.param(
            ["ftl", "sweep", "--requests", "40", "--fills", "2", "--queue"],
            id="ftl sweep --fills 2",
        ),
        pytest.param(
            ["faults", "sweep", "--requests", "40", "--link-counts", "-1",
             "--cache"],
            id="faults sweep --link-counts -1",
        ),
        pytest.param(
            ["qos", "sweep", "--requests", "40", "--levels", "0.5",
             "--queue"],
            id="qos sweep --levels 0.5",
        ),
        pytest.param(
            ["qos", "sweep", "--requests", "40", "--policies", "--cache"],
            id="qos sweep --policies",
        ),
        pytest.param(
            ["ftl", "sweep", "--requests", "40", "--op", "2", "--queue"],
            id="ftl sweep --op 2",
        ),
        pytest.param(["run", "--requests", "0", "--cache"],
                     id="run --requests 0"),
        pytest.param(
            ["fleet", "sweep", "--requests", "40", "--tenants", "0",
             "--queue"],
            id="fleet sweep --tenants 0",
        ),
        pytest.param(
            ["fleet", "sweep", "--requests", "40", "--sample", "-1",
             "--cache"],
            id="fleet sweep --sample -1",
        ),
        pytest.param(
            ["fleet", "run", "--devices", "2", "--sample", "5",
             "--requests", "40", "--cache"],
            id="fleet run --devices 2 --sample 5",
        ),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_bad_flags_exit_before_making_a_directory(tmp_path, capsys, argv):
    target = tmp_path / "dir"
    assert main(argv + [str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.exists()


def test_cache_path_that_is_a_file_errors_cleanly(tmp_path, capsys):
    target = tmp_path / "not-a-dir"
    target.write_text("")
    code = main(
        ["run", "--workload", "hm_0", "--requests", "60", "--cache", str(target)]
    )
    assert code == 2
    assert "cache directory" in capsys.readouterr().err


def test_corrupt_cache_entry_errors_cleanly(tmp_path, capsys):
    import json as jsonlib

    argv = ["run", "--workload", "hm_0", "--requests", "60", "--json",
            "--cache", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    entry = next(tmp_path.glob("*.json"))
    payload = jsonlib.loads(entry.read_text())
    payload["spec"]["workload"] = "proj_3"
    entry.write_text(jsonlib.dumps(payload))
    assert main(argv) == 2
    assert "does not match its digest key" in capsys.readouterr().err


def test_run_command_with_cache(tmp_path, capsys):
    argv = [
        "run", "--design", "venice", "--workload", "hm_0",
        "--requests", "60", "--json", "--cache", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm == cold
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_bench_command_writes_payload_and_gates(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "BENCH_core.json"
    baseline_path = tmp_path / "baseline.json"
    # A generous baseline any machine beats; gate must pass.
    baseline_path.write_text(
        json.dumps({"events_per_sec": 1.0, "requests_per_sec": 1.0})
    )
    code = main(
        ["bench", "--quick", "--out", str(out_path), "--baseline", str(baseline_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["events_per_sec"] > 0
    assert payload["requests_per_sec"] > 0
    assert "end_to_end" in payload
    out = capsys.readouterr().out
    assert "no regression" in out


def test_bench_command_fails_on_regression(tmp_path, capsys):
    out_path = tmp_path / "BENCH_core.json"
    baseline_path = tmp_path / "baseline.json"
    # An impossible baseline; the gate must trip with exit code 3.
    baseline_path.write_text(
        json.dumps({"events_per_sec": 1e15, "requests_per_sec": 1e15})
    )
    code = main(
        ["bench", "--quick", "--out", str(out_path), "--baseline", str(baseline_path)]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "PERF REGRESSION" in captured.err


def test_store_stats_command(tmp_path, capsys):
    assert main(["run", "--design", "baseline", "--workload", "hm_0",
                 "--requests", "60", "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["store", "stats", "--cache", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert stats["checkpoints"] == 0


def test_store_stats_rejects_missing_directory(tmp_path, capsys):
    code = main(["store", "stats", "--cache", str(tmp_path / "nope")])
    assert code == 2
    assert "not a result-store directory" in capsys.readouterr().err


def test_figure_accepts_amortization_flags(capsys):
    code = main([
        "figure", "fig13", "--requests", "120", "--workloads", "hm_0",
        "--warmup", "fill 0.3; steps 100",
        "--early-stop", "window 40; tolerance 0.05; min 80",
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "fig13"


def test_figure_rejects_bad_warmup_grammar(capsys):
    code = main([
        "figure", "fig13", "--requests", "60", "--workloads", "hm_0",
        "--warmup", "fill lots",
    ])
    assert code == 2
    assert "warm-up" in capsys.readouterr().err
