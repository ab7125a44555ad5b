"""Executor tests: serial/parallel determinism, dedup, store-backed reuse."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import (
    Executor,
    execute_spec,
    execute_specs,
)
from repro.experiments.figures import run_all_figures, run_figure
from repro.experiments.spec import ExperimentScale, make_spec
from repro.experiments.store import ResultStore

SCALE = ExperimentScale(requests=60, blocks_per_plane=8, pages_per_block=8)

SPECS = [
    make_spec(design, "performance-optimized", workload, SCALE)
    for workload in ("proj_3", "YCSB_B")
    for design in ("baseline", "venice")
]


def test_serial_and_parallel_backends_agree_exactly():
    serial, _ = Executor().run(SPECS)
    parallel, failures = Executor(jobs=2).run(SPECS)
    assert failures == []
    assert serial == parallel  # bit-identical RunResults, same order


def test_executor_checks_jobs_and_timeout():
    assert (Executor().jobs, Executor(4).jobs) == (1, 4)
    for jobs in (0, -4):
        with pytest.raises(ConfigurationError, match="--jobs must be >= 1"):
            Executor(jobs)
    for timeout in (0, -1.0):
        with pytest.raises(ConfigurationError, match="--timeout must be > 0"):
            Executor(timeout=timeout)


def test_inline_executor_stores_each_result_before_the_next_spec_starts(
    tmp_path, monkeypatch
):
    store = ResultStore(tmp_path)
    stored_at_start = []

    def spy(spec, state=None):
        stored_at_start.append([other in store for other in SPECS])
        return execute_spec(spec, state)

    monkeypatch.setattr("repro.experiments.executor.execute_spec", spy)
    execute_specs(SPECS, executor=Executor(), store=store)
    # Spec k starts with exactly specs 0..k-1 already in the store.
    assert stored_at_start == [
        [other < k for other in range(len(SPECS))] for k in range(len(SPECS))
    ]
    assert store.writes == len(SPECS)


def test_execute_specs_deduplicates_repeated_specs():
    executor = Executor()
    duplicated = [SPECS[0], SPECS[0], SPECS[1], SPECS[0]]
    results = execute_specs(duplicated, executor=executor)
    assert executor.runs_completed == 2
    assert set(results) == {SPECS[0], SPECS[1]}


def test_warm_store_serves_everything_without_simulating(tmp_path):
    store = ResultStore(tmp_path)
    first = Executor()
    cold = execute_specs(SPECS, executor=first, store=store)
    assert first.runs_completed == len(SPECS)

    # Fresh store instance against the same directory: everything must come
    # from disk and the executor must never be invoked.
    warm_store = ResultStore(tmp_path)
    second = Executor()
    warm = execute_specs(SPECS, executor=second, store=warm_store)
    assert second.runs_completed == 0
    assert warm_store.hits == len(SPECS)
    assert warm == cold


def test_figures_share_the_cached_matrix(tmp_path):
    """fig10 and fig13 draw from fig9a's perf-opt matrix: zero extra runs."""
    store = ResultStore(tmp_path)
    executor = Executor()
    run_figure("fig9a", SCALE, ("proj_3",), executor=executor, store=store)
    after_fig9 = executor.runs_completed
    assert after_fig9 == 6  # six designs, one workload
    run_figure("fig10", SCALE, ("proj_3",), executor=executor, store=store)
    run_figure("fig13", SCALE, ("proj_3",), executor=executor, store=store)
    assert executor.runs_completed == after_fig9  # fully served by the store


def test_matrix_pass_is_cached_end_to_end(tmp_path):
    """Acceptance: a repeat matrix pass against the same cache simulates nothing."""
    names = ("fig9a", "fig10", "fig13", "table4")
    first = Executor()
    cold = run_all_figures(
        SCALE,
        workloads=("proj_3",),
        figures=names,
        executor=first,
        store=ResultStore(tmp_path),
    )
    assert first.runs_completed == 6  # the shared matrix, simulated once

    second = Executor()
    warm_store = ResultStore(tmp_path)
    warm = run_all_figures(
        SCALE,
        workloads=("proj_3",),
        figures=names,
        executor=second,
        store=warm_store,
    )
    assert second.runs_completed == 0
    assert warm_store.writes == 0
    assert warm == cold


def test_parallel_matrix_equals_sequential_matrix():
    names = ("fig9a", "fig13")
    sequential = run_all_figures(
        SCALE, workloads=("proj_3",), figures=names, executor=Executor()
    )
    parallel = run_all_figures(
        SCALE, workloads=("proj_3",), figures=names,
        executor=Executor(jobs=4),
    )
    assert parallel == sequential


def test_isolated_execution_matches_inline_execution():
    isolated = Executor(timeout=300.0).run([SPECS[0]])
    assert isolated == ([execute_spec(SPECS[0])], [])
