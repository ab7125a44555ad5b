"""Wall-clock benchmark of venice-sim's user-facing pipelines, per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig-sweep --seed 42 --seconds 30 --trace 0

``--workload`` is ``fig-sweep``, ``ftl-write``, ``serve-fleet`` or ``all``.
With ``--trace 0`` the run repeats the workload, each time from fresh state
on the same inputs, for ``--seconds`` (at least twice), measures the host's
speed alongside, and reports the end-to-end metrics scaled to a reference
host speed, as medians over the iterations.  With ``--trace 1`` it runs one untraced
iteration, then profiled iterations for the rest of ``--seconds`` (at least
two), and reports the per-layer metrics.  Either way it prints one
``name value unit`` line per metric, a host line, and, last, one JSON
object.  See NOTES.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pipelines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Environment switches that change what a spec simulates.
ENV_SWITCHES = ("VENICE_EXACT_STATS", "VENICE_TRACE_DIR")

#: End-to-end metrics (``--trace 0``), as in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

MIN_ITERATIONS = 2
SETUP_REPEATS = 7

#: The host-speed probe: a fixed pure-Python loop of PROBE_LOOPS steps,
#: timed every PROBE_INTERVAL_S while the untraced run works, and its
#: time on the reference host -- a 2-vCPU shared VM, Python 3.11, in its
#: fast state.  Reported times are scaled to that host's speed.
PROBE_LOOPS = 3000
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 250e-6

#: Resubmissions in the untraced pass of a traced serve-fleet run, which
#: gives the service latency percentiles (>= 10 samples beyond p90), and
#: in each traced iteration.
LATENCY_RESUBMITS = 100
TRACED_RESUBMITS = 10

_SETUP_PRELUDE = (
    "import pathlib, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "workdir = pathlib.Path(sys.argv[2])\n"
)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=(*pipelines.WORKLOADS, "all"),
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 without samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def host_sentinel() -> Dict[str, object]:
    """Host state next to every run: a fixed pure-Python calibration loop
    (median of three), the Python version, nproc and the load average."""

    def calibrate() -> float:
        start = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value % 7
        return time.perf_counter() - start

    return {
        "calibration_s": statistics.median(calibrate() for _ in range(3)),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def _probe_loop() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value % 7
    return time.perf_counter() - start


class HostSpeed:
    """How fast the host runs Python, sampled while the benchmark works.

    A thread of its own times :func:`_probe_loop` every PROBE_INTERVAL_S.
    ``main`` pins the process to one CPU, so the probe shares that CPU,
    and whatever slows it, with the workload and its set-up probes.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-host-speed", daemon=True
        )

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append((time.perf_counter(), _probe_loop()))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time within ``[start, end]`` over the reference's."""
        during = [probe for at, probe in self.samples if start <= at <= end]
        if not during:
            raise RuntimeError("no host-speed sample within a timed part")
        return statistics.fmean(during) / REFERENCE_PROBE_S


def measure_setup(workload, workdir: Path, host: HostSpeed) -> float:
    """Seconds a fresh interpreter takes to import and set up the workload,
    scaled to the reference host's speed."""
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PRELUDE + workload.setup_probe,
         str(SRC), str(workdir)],
        stdout=subprocess.DEVNULL,
    )
    # A blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantise the measurement; the watchdog bounds a hang.
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    end = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"{workload.name} set-up probe exited with {code}")
    return (end - start) / host.slowdown(start, end)


def _iterate(workload, seed: int, workdir: Path, **kwargs):
    workdir.mkdir(parents=True)
    # Start every iteration from a collected heap, so the earlier ones'
    # garbage does not land in its timed phase.
    gc.collect()
    try:
        return workload.run(seed, workdir, **kwargs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check_outputs(outcomes, seed: int, expected: Dict[str, object]) -> List[str]:
    """Every iteration must produce one output; seed 42's is pinned."""
    problems = []
    digests = {outcome.digest for outcome in outcomes if outcome.digest}
    name = outcomes[0].workload
    if len(digests) > 1:
        problems.append(f"{name}: output differs between iterations: {sorted(digests)}")
    pinned = expected["digests"].get(name) if seed == expected["seed"] else None
    if pinned is not None and digests and digests != {pinned}:
        problems.append(f"{name}: output sha256 {sorted(digests)} != pinned {pinned}")
    return problems


def timed_run(workload, seed: int, seconds: float, workdir: Path):
    """Untraced iterations for ``seconds``, each after a set-up probe;
    end-to-end metrics, scaled to the reference host's speed.

    Every iteration does the same deterministic work in the same parts
    (one per ftl-write sweep, one for the other workloads).  Each part's
    seconds are divided by the host's slowdown while it ran, and
    ``wall_s`` and ``cpu_s`` sum each part's median over the iterations;
    NOTES.md says why.
    """
    outcomes, setup = [], []
    with HostSpeed() as host:
        deadline = time.perf_counter() + seconds
        while len(outcomes) < MIN_ITERATIONS or time.perf_counter() < deadline:
            setup.append(
                measure_setup(workload, workdir / f"setup{len(setup)}", host)
            )
            outcomes.append(
                _iterate(workload, seed, workdir / f"it{len(outcomes)}")
            )
        while len(setup) < SETUP_REPEATS:
            setup.append(
                measure_setup(workload, workdir / f"setup{len(setup)}", host)
            )
    ok = [outcome for outcome in outcomes if not outcome.failures]
    problems = []
    if len({len(outcome.parts) for outcome in ok}) > 1:
        problems.append(f"{workload.name}: iterations timed different parts")

    def scaled(part) -> Tuple[float, float]:
        slowdown = host.slowdown(part.start, part.end)
        return part.wall_s / slowdown, part.cpu_s / slowdown

    repeats = [
        [scaled(part) for part in parts]
        for parts in zip(*(outcome.parts for outcome in ok))
    ]
    wall_s = sum(_median([wall for wall, _ in part]) for part in repeats)
    metrics = {
        "wall_s": wall_s,
        "cpu_s": sum(_median([cpu for _, cpu in part]) for part in repeats),
        "sim_req_per_s": ok[0].requests / wall_s if ok else 0.0,
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    mean_probe = statistics.fmean(probe for _, probe in host.samples)
    print(
        f"# host slowdown {mean_probe / REFERENCE_PROBE_S:.4f} "
        f"(mean of {len(host.samples)} probes)"
    )
    return outcomes, metrics, problems


def traced_run(workload, seed: int, seconds: float, workdir: Path):
    """One untraced iteration, then profiled ones; per-layer metrics."""
    import layers

    start = time.perf_counter()
    baseline = _iterate(
        workload, seed, workdir / "untraced", resubmits=LATENCY_RESUBMITS
    )
    outcomes, per_iteration = [baseline], []
    while len(per_iteration) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        tracer = layers.Tracer()
        outcome = _iterate(
            workload, seed, workdir / f"traced{len(per_iteration)}",
            tracer=tracer, resubmits=TRACED_RESUBMITS,
        )
        outcomes.append(outcome)
        if not outcome.failures:
            per_iteration.append(tracer.metrics({
                "store_bytes": outcome.store_bytes,
                "queue_wait_s": outcome.queue_wait_s,
                "record_bytes": outcome.record_bytes,
                "wall_s": outcome.wall_s,
            }))
        elif len(outcomes) > 2 * MIN_ITERATIONS + 1:
            break
    problems, metrics = [], {}
    for name, _, exact in layers.PER_LAYER:
        readings = [values[name] for values in per_iteration if name in values]
        if exact and len(set(readings)) > 1:
            problems.append(
                f"{workload.name}: count {name} moved between traced "
                f"iterations: {readings}"
            )
        metrics[name] = _median(readings)
    metrics.update({
        "service.submit_ms_p50": _percentile(baseline.submit_ms, 0.50),
        "service.submit_ms_p90": _percentile(baseline.submit_ms, 0.90),
        "service.fetch_ms_p50": _percentile(baseline.fetch_ms, 0.50),
        "service.fetch_ms_p90": _percentile(baseline.fetch_ms, 0.90),
        "trace.overhead_x": (
            metrics["trace.wall_s"] / baseline.wall_s if baseline.wall_s else 0.0
        ),
    })
    return outcomes, metrics, problems


def run_workload(name: str, args: argparse.Namespace, expected) -> dict:
    """One workload end to end: set-up probes, iterations, checks, report."""
    import layers

    workload = pipelines.WORKLOADS[name]
    workdir = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        host = host_sentinel()
        if args.trace:
            outcomes, metrics, problems = traced_run(
                workload, args.seed, args.seconds, workdir
            )
            units = {metric: unit for metric, unit, _ in layers.PER_LAYER}
        else:
            outcomes, metrics, problems = timed_run(
                workload, args.seed, args.seconds, workdir
            )
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    problems = [
        failure for outcome in outcomes for failure in outcome.failures
    ] + problems + _check_outputs(outcomes, args.seed, expected)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    if problems and failed == 0:
        failed = attempted  # every iteration's output or counts are suspect
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {name}: {len(outcomes)} iterations, seed {args.seed}, trace {args.trace}")
    print(f"# iteration raw wall_s {[round(outcome.wall_s, 4) for outcome in outcomes]}")
    for metric, unit in units.items():
        print(f"{name} {metric} {metrics[metric]:.6g} {unit}")
    print(f"{name} failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"{name} output_sha256 {outcomes[0].digest}")
    print(f"# host {json.dumps(host)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def main(argv: Sequence[str] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no venice-sim sources at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    for switch in ENV_SWITCHES:
        os.environ.pop(switch, None)
    # One CPU for every thread and child: the work runs on the CPU the
    # host-speed probe samples (the interpreter lock serialises it anyway).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    expected = json.loads((HERE / "expected.json").read_text())
    names = tuple(pipelines.WORKLOADS) if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args, expected)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
