"""Shared benchmark configuration.

Every benchmark regenerates one paper table/figure at a reduced-but-faithful
scale (the array geometry is never scaled; only trace length and per-plane
capacity are, which do not affect path-conflict behaviour).  Each bench
prints the rows/series the paper reports so the output can be compared to
the published figure directly; EXPERIMENTS.md records a full-scale run.
"""

import os

import pytest

from repro.experiments.spec import ExperimentScale
from repro.experiments.store import ResultStore

# One fixed benchmark scale so all figures are mutually comparable.
BENCH_SCALE = ExperimentScale(
    requests=220,
    requests_per_mix_constituent=90,
    blocks_per_plane=16,
    pages_per_block=16,
)

# A representative cross-section of Table 2 (read-heavy, write-heavy,
# sequential, zipfian, large-request) used by the per-figure benches.
BENCH_WORKLOADS = ("hm_0", "proj_3", "prxy_0", "src2_1", "YCSB_B", "LUN0")


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_workloads():
    return BENCH_WORKLOADS


@pytest.fixture(scope="session")
def bench_store(tmp_path_factory):
    """One content-addressed result store for the whole benchmark session.

    fig9a, fig10, fig13, and fig14 all draw from the same
    performance-optimized design matrix; sharing a store means that matrix
    is simulated exactly once per session, and each later bench measures
    only its marginal (non-shared) runs plus the pure reduction.

    Set ``VENICE_BENCH_STORE=/path/to/dir`` to pin the store to a
    persistent directory: CI caches it between workflow runs and local
    re-runs start warm, so unchanged spec digests simulate nothing.
    """
    pinned = os.environ.get("VENICE_BENCH_STORE")
    if pinned:
        return ResultStore(pinned)
    return ResultStore(tmp_path_factory.mktemp("venice-results"))


def emit(title, text):
    print(f"\n=== {title} ===")
    print(text)
