#!/usr/bin/env python3
"""Trace replay end to end: parse a real-format trace, replay it, cache it.

Walks the whole trace subsystem:

1. writes a tiny MSR-Cambridge-format CSV (the format the paper's largest
   workload family ships in),
2. streams it through the format readers (detection, row validation,
   canonical content digest),
3. replays it on a Venice-fabric device via ``TraceWorkload``,
4. builds a trace-backed ``RunSpec`` and shows that a second execution is
   bit-identical and a warm result store serves it without simulating.

Run:  PYTHONPATH=src python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro.experiments.executor import Executor, execute_specs
from repro.experiments.spec import ExperimentScale, make_spec
from repro.experiments.store import ResultStore
from repro.workloads import TraceWorkload, detect_format, trace_digest

# A dozen MSR rows: filetime ticks, host, disk, type, offset, size, response.
MSR_ROWS = """\
128166372003061629,hm,0,Read,383496192,32768,413
128166372003766629,hm,0,Write,310378496,8192,512
128166372004376629,hm,0,Read,383528960,16384,398
128166372005061629,hm,0,Read,92165120,4096,287
128166372006161629,hm,0,Write,310386688,8192,477
128166372007061629,hm,0,Read,383545344,32768,421
128166372008561629,hm,0,Write,401768448,4096,387
128166372009061629,hm,0,Read,92169216,4096,301
128166372010761629,hm,0,Read,383578112,65536,502
128166372011061629,hm,0,Write,310394880,8192,455
128166372012461629,hm,0,Read,92173312,8192,318
128166372013061629,hm,0,Write,401772544,4096,369
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        trace_file = Path(scratch) / "hm_tiny.csv"
        trace_file.write_text(MSR_ROWS)

        # 1-2. Detect and digest: the digest covers parsed records, so it
        # is identical for this file, its .gz copy, or its converted CSV.
        fmt = detect_format(trace_file)
        digest = trace_digest(trace_file)
        print(f"format  : {fmt.name} ({fmt.description})")
        print(f"digest  : {digest[:32]}…")

        # 3. Replay through the generator interface (offsets are remapped
        # into the footprint, arrivals normalized to t=0).
        workload = TraceWorkload(trace_file)
        trace = workload.generate(count=12, footprint_bytes=64 << 20)
        print(f"trace   : {trace.characteristics()}")

        # 4. Spec-level replay: content-addressed, cache-aware.
        scale = ExperimentScale(requests=12, blocks_per_plane=8, pages_per_block=8)
        spec = make_spec("venice", "performance-optimized",
                         f"trace:{trace_file}", scale)
        print(f"spec    : {spec.label()}  digest {spec.digest[:16]}…")

        first = spec.execute().to_dict()
        second = spec.execute().to_dict()
        print(f"deterministic replay: {first == second}")

        store = ResultStore(Path(scratch) / "store")
        execute_specs([spec], store=store)
        warm = Executor()
        result = execute_specs([spec], executor=warm, store=store)[spec]
        print(f"warm-cache simulations: {warm.runs_completed}")
        print(f"p99 latency: {result.p99_latency_ns / 1e3:.1f} us "
              f"({result.requests_completed} requests replayed)")


if __name__ == "__main__":
    main()
