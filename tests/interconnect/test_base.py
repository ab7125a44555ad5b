"""Fabric base-layer tests: outcomes and statistics accounting."""

from repro.interconnect.base import FabricStats, TransferOutcome


def outcome(**overrides):
    defaults = dict(
        waited=False,
        conflicted=False,
        start_ns=0,
        end_ns=100,
        fc_index=0,
    )
    defaults.update(overrides)
    return TransferOutcome(**defaults)


def test_outcome_duration():
    assert outcome(start_ns=50, end_ns=175).duration_ns == 125


def test_stats_counts_conflicts_and_waits():
    stats = FabricStats()
    stats.record(outcome(conflicted=True, waited=True))
    # A wait that is not a path conflict (chip busy, FC busy) is no conflict.
    stats.record(outcome(waited=True))
    stats.record(outcome())
    assert stats.transfers == 3
    assert stats.conflicted_transfers == 1


def test_stats_scout_attempt_accumulation():
    stats = FabricStats()
    stats.record(outcome(scout_attempts=3))
    stats.record(outcome(scout_attempts=1))
    assert stats.scout_attempts_total == 4
