"""Sweep amortizations: exact-mode no-ops, checkpoint identity, early-stop
accuracy, and warm-cache replay of checkpointed matrices.

These are the acceptance tests of the perf work in docs/performance.md:
the knobs must cost nothing when off (bit-identical digests and results),
and when on, a checkpointed run must be bit-identical to a cold run of
the same spec while early-stopped quantiles stay inside the documented 1%
relative bound of DESIGN.md §5.
"""

from dataclasses import replace

import pytest

from repro.experiments.executor import Executor, execute_specs
from repro.experiments.figures import _CONFLICT_DESIGNS
from repro.experiments.spec import ExperimentScale, RunSpec, make_spec
from repro.experiments.store import ResultStore

#: Sub-saturation scale: a latency steady state exists for the early-stop
#: monitor to detect (the default overloaded scale has none, by design).
QUIET_SCALE = ExperimentScale(
    requests=600,
    requests_per_mix_constituent=200,
    blocks_per_plane=16,
    pages_per_block=16,
    target_pressure=0.05,
)
WARMUP = "fill 0.85; steps 1200"
EARLY_STOP = "window 50; tolerance 0.01; patience 2; min 200"


def _exact(design, workload="prxy_0"):
    return make_spec(design, "performance-optimized", workload, QUIET_SCALE)


class TestExactModeIsUntouched:
    def test_empty_knobs_leave_digest_and_dict_unchanged(self):
        spec = _exact("venice")
        payload = spec.to_dict()
        assert "warmup" not in payload and "early_stop" not in payload
        # A payload written before the knobs existed reloads to the same
        # digest (conditional key omission keeps old caches valid).
        assert RunSpec.from_dict(payload).digest == spec.digest

    def test_knobs_change_the_digest_when_set(self):
        spec = _exact("venice")
        assert replace(spec, warmup=WARMUP).digest != spec.digest
        assert replace(spec, early_stop=EARLY_STOP).digest != spec.digest

    def test_exact_run_reports_no_amortization(self):
        result, info = _exact("baseline", "hm_0").execute_instrumented()
        assert info["warmup_events"] == 0
        assert info["checkpoint_restored"] is False
        assert info["early_stopped"] is False
        assert info["simulated_requests"] == result.requests_completed
        assert "early_stop_converged" not in result.extra


class TestCheckpointIdentity:
    def test_cold_and_restored_runs_are_bit_identical(self):
        spec = replace(_exact("venice", "hm_0"), warmup="fill 0.4; steps 200")
        cold, cold_info = spec.execute_instrumented()
        assert cold_info["warmup_events"] > 0

        state, _ = spec.compute_checkpoint()
        warm, warm_info = spec.execute_instrumented(state)
        assert warm_info["checkpoint_restored"] is True
        assert warm_info["warmup_events"] == 0
        assert warm.to_dict() == cold.to_dict()

    def test_matrix_shares_one_warmup_per_design(self):
        specs = [
            replace(_exact("venice", workload), warmup="fill 0.3; steps 150")
            for workload in ("hm_0", "prxy_0", "proj_3")
        ]
        executor = Executor()
        execute_specs(specs, executor=executor)
        assert executor.warmups == 1  # one digest serves all three cells
        assert executor.restores == len(specs)


class TestEarlyStopAccuracy:
    @pytest.fixture(scope="class")
    def matrix(self):
        """Full-horizon and early-stopped fig9a-style cells, five fabrics.

        Both arms start from the same warmed-up checkpoint so the
        comparison isolates the early-stop error (warm-up deliberately
        changes the measured regime; that is its job, not an error).
        """
        cells = {}
        for kind in _CONFLICT_DESIGNS:
            full = replace(_exact(kind), warmup=WARMUP)
            fast = replace(full, early_stop=EARLY_STOP)
            state, _ = full.compute_checkpoint()
            full_result, _ = full.execute_instrumented(state)
            fast_result, fast_info = fast.execute_instrumented(state)
            cells[kind.value] = (full_result, fast_result, fast_info)
        return cells

    def test_some_cells_converge_early(self, matrix):
        stopped = [d for d, (_, _, info) in matrix.items()
                   if info["early_stopped"]]
        assert stopped, "no cell early-stopped: the recipe is dead"

    def test_quantiles_stay_inside_the_documented_bound(self, matrix):
        # The §5 bound is a *quantile* bound: p99 from the converged prefix
        # must agree with the full horizon to 1%.  The mean is an extensive
        # average over the simulated prefix and is only sanity-bounded --
        # the unsimulated tail legitimately shifts it by a few percent.
        for design, (full_result, fast_result, _) in matrix.items():
            reference = full_result.p99_latency_ns
            measured = fast_result.p99_latency_ns
            error = abs(measured - reference) / reference
            assert error <= 0.0101, (
                f"{design} p99: {measured} vs {reference} "
                f"({error:.2%} > 1%)"
            )
            mean_error = abs(
                fast_result.mean_latency_ns - full_result.mean_latency_ns
            ) / full_result.mean_latency_ns
            assert mean_error <= 0.10, f"{design} mean off by {mean_error:.2%}"

    def test_requests_report_the_full_horizon(self, matrix):
        for design, (_, fast_result, info) in matrix.items():
            assert fast_result.requests_completed == QUIET_SCALE.requests
            if info["early_stopped"]:
                assert info["simulated_requests"] < QUIET_SCALE.requests


class TestWarmStoreReplay:
    def test_checkpointed_matrix_replays_without_simulating(self, tmp_path):
        specs = [
            replace(_exact(kind, "hm_0"), warmup="fill 0.3; steps 150",
                    early_stop=EARLY_STOP)
            for kind in _CONFLICT_DESIGNS[:2]
        ]
        store = ResultStore(tmp_path)
        cold_executor = Executor()
        cold = execute_specs(specs, executor=cold_executor, store=store)
        assert cold_executor.runs_completed == len(specs)
        assert (tmp_path / "checkpoints").is_dir()

        warm_store = ResultStore(tmp_path)
        warm_executor = Executor()
        warm = execute_specs(specs, executor=warm_executor, store=warm_store)
        assert warm_executor.runs_completed == 0  # zero simulations
        assert warm_store.hits == len(specs)
        assert {s: r.to_dict() for s, r in warm.items()} == (
            {s: r.to_dict() for s, r in cold.items()}
        )

    def test_store_stats_sees_results_and_checkpoints(self, tmp_path):
        spec = replace(_exact("venice", "hm_0"), warmup="fill 0.2; steps 100")
        store = ResultStore(tmp_path)
        execute_specs([spec], store=store)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["checkpoints"] == 1
        assert stats["bytes"] > 0 and stats["checkpoint_bytes"] > 0
        assert stats["writes"] == 1
