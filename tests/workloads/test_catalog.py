"""Table 2 catalog and synthetic generator fidelity tests."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.catalog import (
    WORKLOAD_CATALOG,
    generate_workload,
    spec_by_name,
    workload_names,
)
from repro.workloads.synthetic import AddressPattern, SyntheticGenerator, WorkloadSpec

FOOTPRINT = 256 << 20  # 256 MiB


def test_catalog_has_all_nineteen_traces():
    assert len(WORKLOAD_CATALOG) == 19
    expected = {
        "hm_0", "mds_0", "proj_3", "prxy_0", "rsrch_0", "src1_0", "src2_1",
        "usr_0", "wdev_0", "web_1", "YCSB_B", "YCSB_D", "jenkins", "postgres",
        "LUN0", "LUN2", "LUN3", "ssd-00", "ssd-10",
    }
    assert set(workload_names()) == expected


def test_catalog_table2_values_spot_check():
    hm = spec_by_name("hm_0")
    assert (hm.read_pct, hm.avg_size_kb, hm.avg_interarrival_us) == (36, 8.8, 58)
    ycsb = spec_by_name("YCSB_B")
    assert (ycsb.read_pct, ycsb.avg_size_kb, ycsb.avg_interarrival_us) == (99, 65.7, 13)
    lun3 = spec_by_name("LUN3")
    assert (lun3.read_pct, lun3.avg_size_kb, lun3.avg_interarrival_us) == (7, 7.7, 3127)
    ssd10 = spec_by_name("ssd-10")
    assert (ssd10.read_pct, ssd10.avg_size_kb, ssd10.avg_interarrival_us) == (99, 11.5, 2)


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        spec_by_name("nonexistent")


@pytest.mark.parametrize("name", ["hm_0", "proj_3", "YCSB_B", "ssd-00", "LUN3"])
def test_generated_trace_matches_published_read_fraction(name):
    trace = generate_workload(name, count=3000, footprint_bytes=FOOTPRINT, seed=1)
    spec = spec_by_name(name)
    assert trace.read_fraction == pytest.approx(spec.read_fraction, abs=0.04)


@pytest.mark.parametrize("name", ["hm_0", "src2_1", "YCSB_D", "LUN0"])
def test_generated_trace_matches_published_mean_size(name):
    trace = generate_workload(name, count=3000, footprint_bytes=FOOTPRINT, seed=1)
    spec = spec_by_name(name)
    assert trace.mean_size_bytes / 1024 == pytest.approx(spec.avg_size_kb, rel=0.15)


@pytest.mark.parametrize("name", ["hm_0", "proj_3", "jenkins"])
def test_generated_trace_matches_published_interarrival(name):
    # The ON-OFF process matches the published mean in expectation; a single
    # finite trace has few idle gaps (each burst is ~64 requests), so the
    # empirical mean is noisy -- average over seeds and allow slack.
    spec = spec_by_name(name)
    means = [
        generate_workload(
            name, count=4000, footprint_bytes=FOOTPRINT, seed=seed
        ).mean_interarrival_us
        for seed in (1, 2, 3, 4)
    ]
    average = sum(means) / len(means)
    assert average == pytest.approx(spec.avg_interarrival_us, rel=0.35)


def test_gap_process_mean_matches_spec_exactly_in_expectation():
    """Direct check of the ON-OFF gap process over many draws."""
    from repro.workloads.synthetic import SyntheticGenerator

    spec = spec_by_name("hm_0")
    generator = SyntheticGenerator(spec, seed=11)
    state = {"remaining": 0, "extent_base": 0, "extent_size": 4096}
    draws = 200_000
    total = sum(generator._next_gap_ns(state) for _ in range(draws))
    mean_us = total / draws / 1000
    assert mean_us == pytest.approx(spec.avg_interarrival_us, rel=0.06)


def test_generation_is_deterministic_per_seed():
    a = generate_workload("hm_0", count=100, footprint_bytes=FOOTPRINT, seed=9)
    b = generate_workload("hm_0", count=100, footprint_bytes=FOOTPRINT, seed=9)
    assert [(r.arrival_ns, r.offset_bytes, r.size_bytes) for r in a] == [
        (r.arrival_ns, r.offset_bytes, r.size_bytes) for r in b
    ]


def test_different_seeds_differ():
    a = generate_workload("hm_0", count=100, footprint_bytes=FOOTPRINT, seed=1)
    b = generate_workload("hm_0", count=100, footprint_bytes=FOOTPRINT, seed=2)
    assert [r.offset_bytes for r in a] != [r.offset_bytes for r in b]


def test_offsets_stay_inside_footprint():
    trace = generate_workload("src2_1", count=2000, footprint_bytes=FOOTPRINT, seed=3)
    for r in trace:
        assert 0 <= r.offset_bytes < FOOTPRINT


def test_arrivals_are_bursty():
    """The gap CV must exceed Poisson's (cv=1): bursts plus long idles."""
    trace = generate_workload("hm_0", count=4000, footprint_bytes=FOOTPRINT, seed=5)
    gaps = [
        b.arrival_ns - a.arrival_ns
        for a, b in zip(trace.requests, trace.requests[1:])
    ]
    mean = sum(gaps) / len(gaps)
    variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    cv = variance**0.5 / mean
    assert cv > 1.5


def test_bursts_are_spatially_local():
    """Requests inside one burst cluster on a small extent."""
    spec = spec_by_name("LUN0")
    trace = generate_workload("LUN0", count=2000, footprint_bytes=FOOTPRINT, seed=5)
    intra_ns = spec.intra_burst_gap_us * 1000
    spans = []
    burst = [trace.requests[0].offset_bytes]
    for a, b in zip(trace.requests, trace.requests[1:]):
        if b.arrival_ns - a.arrival_ns <= intra_ns * 2:
            burst.append(b.offset_bytes)
        else:
            if len(burst) >= 4:
                spans.append(max(burst) - min(burst))
            burst = [b.offset_bytes]
    assert spans, "no bursts detected"
    median_span = sorted(spans)[len(spans) // 2]
    assert median_span <= spec.burst_extent_bytes


def test_sequential_workload_has_runs():
    trace = generate_workload("src2_1", count=1000, footprint_bytes=FOOTPRINT, seed=7)
    sequential = sum(
        1
        for a, b in zip(trace.requests, trace.requests[1:])
        if b.offset_bytes == a.offset_bytes + a.size_bytes
    )
    assert sequential > len(trace) * 0.3


def test_spec_validation():
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", read_pct=120, avg_size_kb=4, avg_interarrival_us=10)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", read_pct=50, avg_size_kb=0, avg_interarrival_us=10)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", read_pct=50, avg_size_kb=4, avg_interarrival_us=10,
                     burst_mean=0.5)


def test_generator_rejects_tiny_footprint():
    generator = SyntheticGenerator(spec_by_name("hm_0"))
    with pytest.raises(WorkloadError):
        generator.generate(10, footprint_bytes=1024)
