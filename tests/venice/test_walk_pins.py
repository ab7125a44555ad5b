"""Pins of the scout walk's exact work on the paper's figure sweep.

The walk's counters and the router LFSRs it leaves behind are not part of
any stored result, so the result and digest pins elsewhere cannot see a
walk that takes different steps on the way to the same circuits.  These
pins can: for each Venice cell of the fig9a/10/13/14 sweep at 100
requests, every walk counter of the network and the fabric, and the final
state of every router's tie-break LFSR (row-major, one digit a router).

Two faulted cells cover the degraded walk and the fault path of
``best_injection``; their whole result is pinned as the sha256 of its
canonical JSON.
"""

import hashlib
import json

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.spec import ExperimentScale, make_spec
from repro.venice import fabric as fabric_module

FIG_SCALE = ExperimentScale(requests=100, requests_per_mix_constituent=50, seed=42)

# (reservations, failed_reservations, total_scout_hops, non_minimal_circuits,
#  scout_attempts_total, scout_failures_total), then the LFSR states.
# scout_attempts_total carries the double count queued in ROADMAP item 1
# (the fabric and FabricStats.record both count each walk), so the change
# that fixes it updates this pin on purpose.
PINNED_FIG_CELLS = {
    "hm_0": (
        (177, 864, 3820, 48, 2082, 864),
        "2333312331322322132322111331212332232132223213312213323212323222",
    ),
    "proj_3": (
        (253, 1591, 5430, 63, 3688, 1591),
        "1332223333221131313323223212312323111122211331321321111311122112",
    ),
    "prxy_0": (
        (125, 392, 2597, 32, 1034, 392),
        "2312213312331222213312212123211213221311221323331321232312312312",
    ),
    "src2_1": (
        (1330, 8373, 33398, 347, 19406, 8373),
        "3232212312331113121132113121212222112322332322332121211333231322",
    ),
    "YCSB_B": (
        (1628, 11614, 26319, 355, 26484, 11614),
        "3112223231122131121232111131231321112313222112131331221231123112",
    ),
    "ssd-10": (
        (295, 1991, 7752, 82, 4572, 1991),
        "2323232322311123133311321331223222121321233322213332211313121212",
    ),
}

FAULTS = (
    "0 link (0,2)-(0,3) down; 2us link (3,3)-(3,4) down; "
    "50us link (1,1)-(1,2) down; 400us link (0,2)-(0,3) up; "
    "600us link (3,3)-(3,4) up"
)

# sha256 of json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")).
PINNED_FAULTED_SHAS = {
    "YCSB_B": "afd3fe3b69b6d7fd9cb253345e9c77b88360f8f3cf4da0e3a85bb62ef7d15a91",
    "ssd-00": "ac377c1e6d32f68ba74ab85614c4e2e37f444e92ea854751757776cb164a774e",
}


@pytest.fixture
def fabrics(monkeypatch):
    """Every VeniceFabric built while the test runs, in build order."""
    built = []
    init = fabric_module.VeniceFabric.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(fabric_module.VeniceFabric, "__init__", recording_init)
    return built


def _walk_counters(fabric):
    network = fabric.network
    return (
        network.reservations,
        network.failed_reservations,
        network.total_scout_hops,
        network.non_minimal_circuits,
        fabric.stats.scout_attempts_total,
        fabric.stats.scout_failures_total,
    )


def _fig_sweep_venice_specs():
    specs = dict.fromkeys(
        spec
        for name in ("fig9a", "fig10", "fig13", "fig14")
        for spec in FIGURES[name].plan(FIG_SCALE, None)[0]
    )
    return {spec.workload: spec for spec in specs if spec.design == "venice"}


def test_fig_sweep_venice_walks_are_pinned(fabrics):
    specs = _fig_sweep_venice_specs()
    assert sorted(specs) == sorted(PINNED_FIG_CELLS)
    observed = {}
    for workload, spec in specs.items():
        fabrics.clear()
        spec.execute()
        (fabric,) = fabrics
        lfsrs = "".join(str(lfsr.state) for lfsr in fabric.network._lfsrs.values())
        observed[workload] = (_walk_counters(fabric), lfsrs)
    assert observed == PINNED_FIG_CELLS
    totals = tuple(map(sum, zip(*(counters for counters, _ in observed.values()))))
    assert totals == (3808, 24825, 79316, 927, 57266, 24825)


@pytest.mark.parametrize("workload", sorted(PINNED_FAULTED_SHAS))
def test_faulted_venice_results_are_pinned(fabrics, workload):
    spec = make_spec(
        "venice",
        "performance-optimized",
        workload,
        ExperimentScale.for_requests(150, 42),
        faults=FAULTS,
    )
    result = spec.execute()
    (fabric,) = fabrics
    assert fabric.network._dead_links  # the walk ran degraded
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == PINNED_FAULTED_SHAS[workload]
