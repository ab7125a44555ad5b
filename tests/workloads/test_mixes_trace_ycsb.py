"""Tests for Table 3 mixes and the Trace container."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.hil.request import IoKind
from repro.workloads.formats import detect_format, iter_trace_records
from repro.workloads.mixes import MIX_CATALOG, generate_mix, mix_names
from repro.workloads.trace import Trace, trace_from_rows

FOOTPRINT = 256 << 20


# --------------------------------------------------------------------- #
# Table 3 mixes
# --------------------------------------------------------------------- #


def test_mix_catalog_matches_table3():
    assert mix_names() == ["mix1", "mix2", "mix3", "mix4", "mix5", "mix6"]
    assert MIX_CATALOG["mix1"].constituents == ("src2_1", "proj_3")
    assert MIX_CATALOG["mix2"].constituents == ("src2_1", "proj_3", "YCSB_D")
    assert MIX_CATALOG["mix6"].constituents == ("prxy_0", "src2_1", "usr_0")
    assert MIX_CATALOG["mix1"].avg_interarrival_us == 5.8
    assert MIX_CATALOG["mix6"].avg_interarrival_us == 3


def test_mix_interarrival_rescaled_to_table3():
    trace = generate_mix("mix1", count_per_constituent=400, footprint_bytes=FOOTPRINT)
    assert trace.mean_interarrival_us == pytest.approx(5.8, rel=0.05)


def test_mix_constituents_get_own_queues_and_slices():
    trace = generate_mix("mix2", count_per_constituent=200, footprint_bytes=FOOTPRINT)
    queues = {r.queue_id for r in trace}
    assert queues == {0, 1, 2}
    slice_bytes = FOOTPRINT // 3
    for r in trace:
        assert r.queue_id * slice_bytes <= r.offset_bytes < (r.queue_id + 1) * slice_bytes + slice_bytes


def test_mix_read_fraction_reflects_constituents():
    read_heavy = generate_mix("mix1", count_per_constituent=300, footprint_bytes=FOOTPRINT)
    write_heavy = generate_mix("mix3", count_per_constituent=300, footprint_bytes=FOOTPRINT)
    assert read_heavy.read_fraction > 0.9
    assert write_heavy.read_fraction < 0.15


def test_unknown_mix_rejected():
    with pytest.raises(WorkloadError):
        generate_mix("mix99", count_per_constituent=10, footprint_bytes=FOOTPRINT)


# --------------------------------------------------------------------- #
# Trace container
# --------------------------------------------------------------------- #


def test_trace_sorts_requests():
    trace = trace_from_rows("t", [(500, "r", 0, 4096), (100, "w", 4096, 4096)])
    assert trace.requests[0].arrival_ns == 100


def test_trace_characteristics():
    trace = trace_from_rows(
        "t", [(0, "r", 0, 8192), (1000, "w", 8192, 8192), (2000, "r", 0, 8192)]
    )
    chars = trace.characteristics()
    assert chars["requests"] == 3
    assert chars["read_pct"] == pytest.approx(66.7)
    assert chars["avg_size_kb"] == 8.0
    assert chars["avg_interarrival_us"] == 1.0


def test_trace_empty_rejected():
    with pytest.raises(WorkloadError):
        Trace("empty", [])


def test_trace_scaled_arrivals():
    trace = trace_from_rows("t", [(0, "r", 0, 4096), (1000, "r", 0, 4096)])
    fast = trace.scaled_arrivals(0.5)
    assert fast.requests[1].arrival_ns == 500
    with pytest.raises(WorkloadError):
        trace.scaled_arrivals(0)


def test_trace_csv_round_trip(tmp_path):
    """`trace convert` writes venice CSV; its reader gives the records back."""
    source = Path(__file__).parent / "data" / "msr_tiny.csv"
    out = tmp_path / "trace.csv"
    assert main(["trace", "convert", str(source), str(out)]) == 0
    assert detect_format(out).name == "venice-csv"
    converted = list(iter_trace_records(out))
    assert converted == list(iter_trace_records(source))
    assert {record.kind for record in converted} == {IoKind.READ, IoKind.WRITE}


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(WorkloadError):
        list(iter_trace_records(path, "venice-csv"))
