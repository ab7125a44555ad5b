"""Experiment harness shape tests (small scale, fast).

These assert the *shape* properties DESIGN.md targets: orderings and
qualitative relations per figure, not absolute numbers.  They use a tiny
scale so the whole module stays fast; the benchmarks run the same functions
at larger scale.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures import (
    fig4_motivation,
    fig9_speedup,
    fig10_throughput,
    fig11_tail_latency,
    fig12_mixed,
    fig13_conflicts,
    fig14_power_energy,
    fig15_sensitivity,
    run_figure,
    table4_overheads,
)
from repro.experiments.reporting import format_table, geometric_mean, speedup_table
from repro.experiments.spec import ExperimentScale
from repro.experiments.store import ResultStore

TINY = ExperimentScale(
    requests=150,
    requests_per_mix_constituent=60,
    blocks_per_plane=8,
    pages_per_block=8,
)
WORKLOADS = ("proj_3", "YCSB_B")


@pytest.fixture(scope="module")
def fig9a():
    return fig9_speedup("performance-optimized", TINY, WORKLOADS)


def test_fig4_ideal_dominates_priors():
    result = fig4_motivation(TINY, WORKLOADS)
    gmean = result["gmean"]
    assert gmean["ideal"] >= gmean["pssd"]
    assert gmean["ideal"] >= gmean["pnssd"]
    assert gmean["ideal"] >= gmean["nossd"]
    assert gmean["ideal"] > 1.2  # a large gap remains (the paper's point)


def test_fig9a_venice_beats_baseline_and_sits_below_ideal(fig9a):
    gmean = fig9a["gmean"]
    assert gmean["venice"] > 1.2
    assert gmean["venice"] <= gmean["ideal"]


def test_fig9a_contains_all_designs_per_workload(fig9a):
    for workload, values in fig9a["speedups"].items():
        assert set(values) == {"pssd", "pnssd", "nossd", "venice", "ideal"}


def test_fig10_normalized_throughput_at_most_one():
    result = fig10_throughput("performance-optimized", TINY, WORKLOADS)
    for values in result["normalized_throughput"].values():
        for design, normalized in values.items():
            assert 0 < normalized <= 1.02, (design, normalized)
    assert result["average"]["venice"] >= result["average"]["baseline"]


def test_fig11_venice_cuts_tail_latency():
    result = fig11_tail_latency(TINY, workloads=("proj_3",))
    reduction = result["reduction_vs_baseline"]["proj_3"]
    assert reduction["venice"] > 0  # lower p99 than baseline
    assert result["p99_ns"]["proj_3"]["ideal"] <= result["p99_ns"]["proj_3"]["baseline"]
    cdf = result["tail_cdfs"]["proj_3"]["venice"]
    assert cdf[0][1] == pytest.approx(0.99)


def test_fig12_mixes_run_and_venice_gains(tmp_path):
    result = fig12_mixed(TINY, mixes=("mix1",))
    assert result["gmean"]["venice"] > 1.0
    assert result["gmean"]["ideal"] >= result["gmean"]["venice"] * 0.9


def test_fig13_venice_conflicts_far_below_priors():
    result = fig13_conflicts(TINY, WORKLOADS)
    average = result["average"]
    assert average["venice"] < average["baseline"]
    assert average["venice"] < average["pssd"]
    assert average["venice"] < average["nossd"]
    assert average["baseline"] > 0.2  # baseline suffers heavily under load


def test_fig14_energy_tracks_execution_time():
    result = fig14_power_energy(TINY, WORKLOADS)
    # Venice finishes faster at similar power => lower energy than baseline.
    assert result["average_energy"]["venice"] < 1.0
    # Power stays within a small band of the baseline (flash ops dominate).
    assert 0.7 < result["average_power"]["venice"] < 1.3


def test_fig15_all_geometries_report():
    result = fig15_sensitivity(
        TINY, workloads=("proj_3",), geometries=((4, 16), (8, 8))
    )
    assert set(result["gmean_speedups"]) == {"4x16", "8x8"}
    for geometry, gmeans in result["gmean_speedups"].items():
        assert "venice" in gmeans
        assert "pnssd" not in gmeans or geometry == "8x8"


def test_table4_reproduces_paper_arithmetic():
    result = table4_overheads(TINY)
    assert result["router_power_mw"] == pytest.approx(0.241)
    assert result["link_power_mw_4kb_transfer"] == pytest.approx(1.08)
    assert result["link_vs_channel_power_saving"] == pytest.approx(0.9, abs=0.01)
    assert result["link_area_saving_fraction"] == pytest.approx(0.44, abs=0.001)
    assert result["links_total"] == 112.0


#: Every figure entry point that takes names, as ``call(names, store)``.
_ENTRY_POINTS = {
    "run_figure": lambda names, store: run_figure(
        "fig13", TINY, names, store=store
    ),
    "fig4": lambda names, store: fig4_motivation(TINY, names, store=store),
    "fig9": lambda names, store: fig9_speedup(
        "cost-optimized", TINY, names, store=store
    ),
    "fig10": lambda names, store: fig10_throughput(
        "cost-optimized", TINY, names, store=store
    ),
    "fig11": lambda names, store: fig11_tail_latency(TINY, names, store=store),
    "fig12": lambda names, store: fig12_mixed(TINY, names, store=store),
    "fig13": lambda names, store: fig13_conflicts(TINY, names, store=store),
    "fig14": lambda names, store: fig14_power_energy(TINY, names, store=store),
    "fig15": lambda names, store: fig15_sensitivity(TINY, names, store=store),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("names", ["empty", "wrong-kind"])
def test_figure_entry_points_reject_bad_names_before_simulating(
    tmp_path, entry, names
):
    """A trace figure given a mix name (fig12: a trace name), or an empty
    list, fails by name before a single cell is looked up or simulated."""
    store = ResultStore(tmp_path / "store")
    if names == "empty":
        chosen = []
    else:
        chosen = ["hm_0"] if entry == "fig12" else ["mix1"]
    with pytest.raises(ConfigurationError):
        _ENTRY_POINTS[entry](chosen, store)
    assert store.misses == 0
    assert store.stats()["entries"] == 0


def test_run_figure_rejects_names_for_an_analytic_figure():
    with pytest.raises(ConfigurationError, match="analytic"):
        run_figure("table4", TINY, ["hm_0"])
    with pytest.raises(ConfigurationError, match="unknown figure"):
        run_figure("fig99", TINY)


# --------------------------------------------------------------------- #
# reporting helpers
# --------------------------------------------------------------------- #


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(Exception):
        geometric_mean([])


def test_format_table_renders():
    text = format_table(["a", "b"], [["x", 1.5], ["y", 2.0]], title="t")
    assert "t" in text
    assert "x" in text
    assert "1.5" in text


def test_speedup_table_includes_gmean_row():
    table = speedup_table(
        {"w1": {"venice": 2.0}, "w2": {"venice": 8.0}}, ["venice"]
    )
    assert "GMEAN" in table
    assert "4" in table
