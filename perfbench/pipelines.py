"""The three benchmarked pipelines, driven through venice-sim's public APIs.

Each iteration of a workload starts from fresh state (a new result store or
service state directory), runs one closed-loop client -- it sends its next
operation only after the previous one completed -- on the serial executor,
and checks the output it gets back.  ``serve-fleet`` adds the service's one
worker thread and its HTTP handler threads.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: fig-sweep: the perf-optimised figures sharing one spec matrix -- the
#: six default traces x six designs = 36 cells of FIG_REQUESTS requests.
#: 100 requests a cell keeps one sweep near 3 s, so a 30-second run holds
#: enough iterations for a steady median.
FIG_NAMES = ("fig9a", "fig10", "fig13", "fig14")
FIG_REQUESTS = 100
FIG_CELLS = 36

#: ftl-write: the baseline slice of ``ftl sweep`` at its defaults except
#: the 0.9 fill, where GC cannot keep up for many seeds (the sweep raises
#: GarbageCollectionError): three fills, three over-provisioning levels at
#: fill 0.85, and the GC x faults pair at fill 0.85.
FTL_FILLS = (0.5, 0.7, 0.85)
#: One sweep's cost moves by a quarter from seed to seed at 600 requests a
#: cell (how hard GC works at the knee) and by half that at 300, so an
#: iteration sweeps FTL_SEEDS seeds derived from the run's at 300, timing
#: each sweep as a part of its own.  Below 300 GC stays idle in the
#: measured phase.
FTL_REQUESTS = 300
FTL_SEEDS = 3
FTL_CELLS = 8 * FTL_SEEDS

#: serve-fleet: the job body; a seed is added per submission.  Each sampled
#: member re-dispatches all devices x requests entries, so the job's cost
#: scales with ``requests``; 100 keeps it near 2 s.  Which members the seed
#: samples moves their simulated events threefold, so an iteration submits
#: one job for each of FLEET_SEEDS seeds derived from the run's.
FLEET_JOB: Dict[str, object] = {
    "kind": "fleet",
    "design": "venice",
    "devices": 256,
    "sample": 8,
    "tenants": 8,
    "placement": "stripe",
    "qos": "wfq:4,1,1,1,1,1,1,1",
    "requests": 100,
}
FLEET_SEEDS = 3

#: Idempotent resubmissions (and as many record fetches) per iteration.
RESUBMITS = 10

#: The client polls a running job at most ten times a second: handler
#: threads share the interpreter lock with the simulating worker.
POLL_INTERVAL_S = 0.1
JOB_TIMEOUT_S = 150.0


def canonical_digest(payload: object) -> str:
    """sha256 of a payload's canonical JSON form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Part:
    """One timed part of an iteration: its seconds, and the
    ``time.perf_counter()`` window it ran in."""

    wall_s: float
    cpu_s: float
    start: float
    end: float


@dataclass
class Outcome:
    """One iteration of a workload: its timings, its work and its checks."""

    workload: str
    attempted: int
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: The timed parts, in order: one per sweep for ftl-write, one for the
    #: other workloads.
    parts: List[Part] = field(default_factory=list)
    requests: int = 0
    digest: str = ""
    store_bytes: int = 0
    queue_wait_s: float = 0.0
    record_bytes: int = 0
    submit_ms: List[float] = field(default_factory=list)
    fetch_ms: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Wall-clock seconds of the whole timed phase."""
        return sum(part.wall_s for part in self.parts)

    @property
    def cpu_s(self) -> float:
        """Process CPU seconds (all threads) of the whole timed phase."""
        return sum(part.cpu_s for part in self.parts)

    def fail(self, message: str, operations: int = 1) -> None:
        """Record a failure, named by workload, of ``operations`` operations."""
        self.failures.append(f"{self.workload}: {message}")
        self.failed = min(self.attempted, self.failed + operations)


@contextmanager
def _guarded(outcome: Outcome):
    """Turn an exception into a failure of every operation not yet failed."""
    try:
        yield
    except Exception as error:  # noqa: BLE001 - a failed iteration is measured
        outcome.fail(
            f"{type(error).__name__}: {error}", outcome.attempted - outcome.failed
        )


class _Clock:
    """Wall-clock and process CPU time (all threads) since construction."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def part(self, wall_s: Optional[float] = None) -> Part:
        """The part timed so far; ``wall_s`` overrides its wall-clock."""
        end = time.perf_counter()
        return Part(
            end - self.wall if wall_s is None else wall_s,
            time.process_time() - self.cpu,
            self.wall,
            end,
        )


def fig_sweep(seed: int, workdir: Path, tracer=None, **_) -> Outcome:
    """``run_all_figures`` over fig9a/10/13/14 into a fresh on-disk store."""
    from repro.experiments.figures import FIGURES, run_all_figures
    from repro.experiments.spec import ExperimentScale
    from repro.experiments.store import ResultStore

    outcome = Outcome("fig-sweep", attempted=FIG_CELLS)
    with _guarded(outcome):
        scale = ExperimentScale(
            requests=FIG_REQUESTS,
            requests_per_mix_constituent=max(50, FIG_REQUESTS // 3),
            seed=seed,
        )
        store = ResultStore(workdir / "store")
        with tracer or nullcontext():
            clock = _Clock()
            figures = run_all_figures(scale, figures=FIG_NAMES, store=store)
            outcome.parts.append(clock.part())
        specs = list(dict.fromkeys(
            spec for name in FIG_NAMES for spec in FIGURES[name].plan(scale, None)[0]
        ))
        results = [store.get(spec) for spec in specs]
        incomplete = [
            spec.label() for spec, result in zip(specs, results)
            if result is None or result.requests_completed != FIG_REQUESTS
        ]
        if len(specs) != FIG_CELLS or incomplete:
            outcome.fail(
                f"{len(specs)} cells, incomplete: {incomplete[:3]}",
                max(1, len(incomplete)),
            )
        outcome.requests = sum(
            result.requests_completed for result in results if result is not None
        )
        outcome.digest = canonical_digest(figures)
        outcome.store_bytes = int(store.stats()["bytes"])
    return outcome


def ftl_write(seed: int, workdir: Path, tracer=None, **_) -> Outcome:
    """The baseline ``run_ftl_sweep`` over FTL_FILLS at FTL_REQUESTS (no
    result store), once for each of the seeds ``FTL_SEEDS * seed + k``."""
    from repro.config.ssd_config import DesignKind
    from repro.experiments.ftl import run_ftl_sweep, sustained_scale

    outcome = Outcome("ftl-write", attempted=FTL_CELLS)
    with _guarded(outcome):
        seeds = [FTL_SEEDS * seed + k for k in range(FTL_SEEDS)]
        payloads = []
        with tracer or nullcontext():
            for sweep_seed in seeds:
                clock = _Clock()
                payloads.append(run_ftl_sweep(
                    scale=sustained_scale(FTL_REQUESTS, seed=sweep_seed),
                    fill_levels=FTL_FILLS,
                    designs=(DesignKind.BASELINE,),
                    seed=sweep_seed,
                ))
                outcome.parts.append(clock.part())
        design = DesignKind.BASELINE.value
        cells = [
            cell
            for payload in payloads
            for cell in payload["write_cliff"][design]
            + payload["wa_op"][design]
            + [payload["gc_faults"][design][key] for key in ("clean", "faulted")]
        ]
        bad = [
            index for index, cell in enumerate(cells)
            if not cell["iops"] > 0 or cell["write_amplification"] < 1.0
        ]
        if len(cells) != FTL_CELLS or bad:
            outcome.fail(f"{len(cells)} cells, implausible: {bad}", max(1, len(bad)))
        outcome.requests = len(cells) * FTL_REQUESTS
        outcome.digest = canonical_digest(payloads)
    return outcome


class _Client:
    """A minimal JSON client for the service (never through a proxy)."""

    def __init__(self, base: str) -> None:
        self.base = base
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def submit(self, body: bytes) -> Tuple[int, dict, float]:
        request = urllib.request.Request(
            self.base + "/v1/runs",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        start = time.perf_counter()
        with self._opener.open(request, timeout=60) as response:
            reply = json.loads(response.read())
            status = response.status
        return status, reply, (time.perf_counter() - start) * 1e3

    def fetch(self, job_id: str) -> Tuple[dict, int, float]:
        start = time.perf_counter()
        with self._opener.open(f"{self.base}/v1/runs/{job_id}", timeout=60) as response:
            raw = response.read()
        return json.loads(raw), len(raw), (time.perf_counter() - start) * 1e3

    def wait(self, job_id: str) -> Tuple[dict, int]:
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            record, size, _ = self.fetch(job_id)
            if record["state"] in ("done", "failed"):
                return record, size
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id[:12]} still {record['state']}")
            time.sleep(POLL_INTERVAL_S)


def serve_fleet(
    seed: int,
    workdir: Path,
    tracer=None,
    resubmits: int = RESUBMITS,
    job: Optional[Dict[str, object]] = None,
) -> Outcome:
    """Fleet jobs through an in-process ``SimulationService``.

    Boots the service on a fresh state directory, submits one job for each
    of the seeds ``FLEET_SEEDS * seed + k`` in turn, polling each until it
    finishes, then alternates ``resubmits`` idempotent resubmissions (over
    the jobs in turn) with as many fetches of their records.
    """
    from repro.experiments.store import ResultStore
    from repro.service.server import ServiceConfig, SimulationService

    outcome = Outcome("serve-fleet", attempted=FLEET_SEEDS + 2 * resubmits)
    with _guarded(outcome):
        service = SimulationService(
            ServiceConfig(state_dir=workdir / "state", jobs=1)
        )
        jobs = [
            dict(job or FLEET_JOB, seed=FLEET_SEEDS * seed + k)
            for k in range(FLEET_SEEDS)
        ]
        with tracer or nullcontext():
            service.start()
            http = threading.Thread(
                target=service.serve_forever, name="perfbench-http", daemon=True
            )
            http.start()
            try:
                _drive(service, jobs, resubmits, outcome)
            finally:
                service.shutdown()
                http.join(timeout=30)
        outcome.store_bytes = int(ResultStore(service.store_dir).stats()["bytes"])
    return outcome


def _drive(service, jobs: List[dict], resubmits: int, outcome: Outcome) -> None:
    """The closed-loop client of one serve-fleet iteration."""
    client = _Client(f"http://{service.host}:{service.port}")
    submitted = []  # (body, job id, result digest) of each finished job
    for job in jobs:
        body = json.dumps(job).encode("utf-8")
        clock = _Clock()
        status, reply, _ = client.submit(body)
        if status != 201 or not reply.get("created"):
            raise RuntimeError(f"first submission answered {status} {reply}")
        job_id = reply["job_id"]
        record, outcome.record_bytes = client.wait(job_id)
        if record["state"] != "done":
            error = (record.get("error") or "").strip().splitlines()[-1:]
            raise RuntimeError(f"job {job_id[:12]} failed: {error}")
        outcome.parts.append(
            clock.part(wall_s=record["finished_at"] - record["submitted_at"])
        )
        outcome.queue_wait_s += record["started_at"] - record["submitted_at"]
        result = record["result"]
        submitted.append((body, job_id, canonical_digest(result)))
        # The job's offered load: the sampled members simulate their shares
        # of it, which swing with the seed far more than the job's cost does.
        outcome.requests += result["devices"] * job["requests"]
    outcome.digest = canonical_digest([digest for _, _, digest in submitted])
    for index in range(resubmits):
        body, job_id, digest = submitted[index % len(submitted)]
        status, reply, elapsed = client.submit(body)
        outcome.submit_ms.append(elapsed)
        idempotent = reply.get("created") is False and reply.get("job_id") == job_id
        if status != 200 or not idempotent:
            outcome.fail(f"resubmission answered {status} {reply}")
        again, _, elapsed = client.fetch(job_id)
        outcome.fetch_ms.append(elapsed)
        same = canonical_digest(again["result"]) == digest
        if again["state"] != "done" or not same:
            outcome.fail(f"fetch of {job_id[:12]} returned another record")


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: its iteration and its set-up probe.

    ``setup_probe`` is Python source that a fresh interpreter runs (with
    ``workdir`` bound to an empty directory) to time the workload's
    set-up: imports, store or state-directory creation, service boot.
    """

    name: str
    run: Callable[..., Outcome]
    setup_probe: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig-sweep",
            fig_sweep,
            "from repro.experiments.figures import run_all_figures\n"
            "from repro.experiments.store import ResultStore\n"
            "ResultStore(workdir / 'store')\n",
        ),
        Workload(
            "ftl-write",
            ftl_write,
            "from repro.experiments.ftl import run_ftl_sweep\n",
        ),
        Workload(
            "serve-fleet",
            serve_fleet,
            "from repro.service.server import ServiceConfig, SimulationService\n"
            "service = SimulationService(\n"
            "    ServiceConfig(state_dir=workdir / 'state', jobs=1)\n"
            ")\n"
            "service.start()\n"
            "service.shutdown()\n",
        ),
    )
}
