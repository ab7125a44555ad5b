"""Per-layer attribution for traced runs (``--trace 1``).

Two instruments, both installed from outside ``src/`` for the length of one
traced iteration:

* an all-thread ``cProfile``.  ``cProfile.Profile.enable()`` hooks only the
  calling thread, but ``serve-fleet`` simulates on the service's worker
  thread and parses submissions on HTTP handler threads, so every thread
  started while tracing gets a profiler of its own (through
  ``threading.setprofile``) and the statistics are merged at the end.  A
  layer's self time sums the profiler's self time over every function
  defined under ``src/repro/<layer>/``; entry-point seconds and counts are
  the cumulative time and call counts of named public functions;
* device counters: ``SsdDevice.run_trace`` is wrapped so that, after each
  replay, the engine's processed events, the fabric's transfers and the
  GC/FTL write counters are read off the device, and ``member_requests`` is
  wrapped to count the entries each fleet member keeps.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import pstats
import sys
import threading
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import repro
import repro.fleet.member
from repro.config.ssd_config import DesignKind
from repro.ssd.device import SsdDevice

#: The layer packages of ``src/repro/``.
LAYERS = (
    "config", "controller", "experiments", "fleet", "ftl", "hil",
    "interconnect", "metrics", "nand", "power", "service", "sim", "ssd",
    "venice", "workloads",
)

#: Every per-layer metric a traced run reports: (name, unit, exact).  An
#: exact metric is a work count (or a ratio of work counts) that must
#: repeat exactly across traced iterations of one tree.
PER_LAYER: Tuple[Tuple[str, str, bool], ...] = (
    *((f"{layer}.self_s", "s", False) for layer in LAYERS),
    ("sim.events", "count", True),
    ("sim.host_ns_per_event", "ns", False),
    ("sim.checkpoint.warmup_s", "s", False),
    ("sim.checkpoint.warmups", "count", True),
    ("sim.checkpoint.restore_s", "s", False),
    ("sim.checkpoint.restores", "count", True),
    ("sim.checkpoint.snapshot_s", "s", False),
    ("ssd.construct_s", "s", False),
    ("ssd.devices", "count", True),
    ("ssd.simulate_s", "s", False),
    ("venice.reserve_calls", "count", True),
    ("venice.reserve_s", "s", False),
    ("venice.reserve_yield", "ratio", True),
    ("interconnect.transfers", "count", True),
    ("nand.block_probes", "count", True),
    ("ftl.alloc_calls", "count", True),
    ("ftl.alloc_s", "s", False),
    ("ftl.gc_triggers", "count", True),
    ("ftl.write_amplification", "ratio", True),
    ("ftl.gc_pages_migrated", "count", True),
    ("metrics.finalize_s", "s", False),
    ("workloads.trace_s", "s", False),
    ("experiments.spec_s", "s", False),
    ("experiments.digests", "count", True),
    ("experiments.store_get_s", "s", False),
    ("experiments.store_put_s", "s", False),
    ("experiments.store_bytes", "bytes", True),
    ("experiments.execute_self_s", "s", False),
    ("fleet.dispatch_s", "s", False),
    ("fleet.dispatch_calls", "count", True),
    ("fleet.place_calls", "count", True),
    ("fleet.dispatch_yield", "ratio", True),
    ("fleet.qos_s", "s", False),
    ("fleet.rollup_s", "s", False),
    ("service.schema_s", "s", False),
    ("service.jobstore_s", "s", False),
    ("service.queue_wait_s", "s", False),
    ("service.record_bytes", "bytes", False),
    ("service.submit_ms_p50", "ms", False),
    ("service.submit_ms_p90", "ms", False),
    ("service.fetch_ms_p50", "ms", False),
    ("service.fetch_ms_p90", "ms", False),
    ("trace.wall_s", "s", False),
    ("trace.overhead_x", "x", False),
)

#: Public functions whose cumulative time and call counts the traced run
#: reads off the profile, as ``module:qualname``.  ``Class.*`` names every
#: function of a class, ``*.name`` every class of the module defining
#: ``name``.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "warmup": ("repro.experiments.spec:RunSpec.compute_checkpoint",),
    "restore": ("repro.sim.checkpoint:restore_device",),
    "snapshot": ("repro.sim.checkpoint:snapshot_device",),
    "precondition": (
        "repro.ssd.device:SsdDevice.precondition",
        "repro.ssd.device:SsdDevice.churn",
    ),
    "construct": ("repro.ssd.device:SsdDevice.__init__",),
    "simulate": ("repro.ssd.device:SsdDevice.run_trace",),
    "reserve": ("repro.venice.network:VeniceNetwork.try_reserve",),
    "block_probe": ("repro.nand.chip:FlashBlock.is_erased",),
    "alloc": (
        "repro.ftl.allocator:PageAllocator.allocate",
        "repro.ftl.allocator:PageAllocator.allocate_in_plane",
        "repro.ftl.allocator:PageAllocator.allocate_multi_plane",
    ),
    "gc_trigger": ("repro.ftl.gc:GarbageCollector.maybe_trigger",),
    "finalize": ("repro.metrics.collector:MetricsCollector.finalize",),
    "trace": ("repro.experiments.spec:RunSpec.build_trace",),
    "make_spec": ("repro.experiments.spec:make_spec",),
    "digest": ("repro.experiments.spec:RunSpec.digest",),
    "store_get": ("repro.experiments.store:ResultStore.get",),
    "store_put": ("repro.experiments.store:ResultStore.put",),
    "execute": ("repro.experiments.executor:execute_specs",),
    "dispatch": ("repro.fleet.member:member_requests",),
    "place": ("repro.fleet.placement:*.place",),
    "qos": ("repro.fleet.qos:*.apply",),
    "rollup": ("repro.fleet.run:roll_up",),
    "schema": ("repro.service.schema:job_from_payload",),
    "jobstore": ("repro.service.jobs:JobStore.*",),
}

#: Entry points whose time ``execute_specs`` spends in other layers; what
#: remains is the executor's own orchestration (config building, spec
#: hashing, result handling).  They never nest inside one another.
_EXECUTE_CHILDREN = (
    "construct", "simulate", "trace", "dispatch", "precondition",
    "snapshot", "restore", "store_get", "store_put",
)

def _functions(target: str) -> List[object]:
    """The function objects one ``module:qualname`` entry names."""
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    *path, last = qualname.split(".")
    if path == ["*"]:
        owners = [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
            and last in vars(value)
        ]
        members = [vars(owner)[last] for owner in owners]
    else:
        owner = module
        for part in path:
            owner = getattr(owner, part)
        if last == "*":
            members = list(vars(owner).values())
        else:
            members = [inspect.getattr_static(owner, last)]
    functions = []
    for member in members:
        if isinstance(member, property):
            member = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            functions.append(inspect.unwrap(member))
    if not functions:
        raise LookupError(f"no function found for {target}")
    return functions


def _keys(targets: Iterable[str]) -> frozenset:
    """cProfile's keys -- (file, first line, name) -- of the named functions."""
    return frozenset(
        (code.co_filename, code.co_firstlineno, code.co_name)
        for target in targets
        for code in (function.__code__ for function in _functions(target))
    )


def _calls(stats: dict, keys: frozenset) -> int:
    return sum(stats[key][1] for key in keys if key in stats)


def _seconds(stats: dict, keys: frozenset) -> float:
    """Cumulative time of a function set, not counting calls among the set."""
    total = 0.0
    for key in keys:
        if key not in stats:
            continue
        _, _, _, cumulative, callers = stats[key]
        total += cumulative
        total -= sum(
            entry[3] for caller, entry in callers.items() if caller in keys
        )
    return total


class Tracer:
    """One traced iteration: all-thread profile plus device counters.

    Use as a context manager around the work to attribute.  Every thread
    started inside the block is profiled and joined on exit, so the
    block must stop the threads it starts (the service's ``shutdown``
    does).
    """

    def __init__(self) -> None:
        self.entry_points = {
            name: _keys(targets) for name, targets in ENTRY_POINTS.items()
        }
        self.counters: Counter = Counter()
        self._profiles: List[Tuple[cProfile.Profile, threading.Thread]] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self.stats: dict = {}

    # -- instruments ------------------------------------------------------ #

    def _profile_this_thread(self) -> None:
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append((profile, threading.current_thread()))
        profile.enable()

    def _thread_hook(self, frame, event, arg) -> None:
        # The first profile event of a thread started while tracing: swap
        # this hook for a profiler of the thread's own.
        sys.setprofile(None)
        self._profile_this_thread()

    def _record_device(self, device: SsdDevice) -> None:
        counters = self.counters
        counters["events"] += device.engine.processed_events
        fabric = device.fabric.stats
        counters["transfers"] += fabric.transfers
        if device.design is DesignKind.VENICE:
            counters["scout_attempts"] += fabric.scout_attempts_total
            counters["scout_failures"] += fabric.scout_failures_total
        counters["gc_pages_migrated"] += device.gc.pages_migrated
        counters["host_pages"] += device.ftl.host_writes
        counters["internal_pages"] += (
            device.gc.pages_written + device.wear_leveler.migrations
        )

    def __enter__(self) -> "Tracer":
        if sys.version_info >= (3, 12):
            # From 3.12 cProfile hooks sys.monitoring, process-wide and one
            # tool at a time, so per-thread profilers cannot coexist.
            raise RuntimeError("traced runs need CPython < 3.12")
        run_trace = SsdDevice.run_trace
        member_requests = repro.fleet.member.member_requests

        @functools.wraps(run_trace)
        def counted_run_trace(device, *args, **kwargs):
            result = run_trace(device, *args, **kwargs)
            self._record_device(device)
            return result

        @functools.wraps(member_requests)
        def counted_member_requests(*args, **kwargs):
            kept = member_requests(*args, **kwargs)
            self.counters["dispatch_kept"] += len(kept)
            return kept

        self._patched = [
            (SsdDevice, "run_trace", run_trace),
            (repro.fleet.member, "member_requests", member_requests),
        ]
        SsdDevice.run_trace = counted_run_trace
        repro.fleet.member.member_requests = counted_member_requests
        threading.setprofile(self._thread_hook)
        self._profile_this_thread()
        return self

    def __exit__(self, *exc_info) -> None:
        threading.setprofile(None)
        main, _ = self._profiles[0]
        main.disable()
        for owner, name, original in self._patched:
            setattr(owner, name, original)
        for _, thread in self._profiles[1:]:
            thread.join(timeout=30)
        merged = pstats.Stats()
        for profile, thread in self._profiles:
            if thread.is_alive() and thread is not threading.current_thread():
                raise RuntimeError(
                    f"traced thread {thread.name} still running; stop it "
                    "inside the traced block"
                )
            try:
                merged.add(pstats.Stats(profile))
            except TypeError:  # a thread that made no profiled call
                continue
        self.stats = merged.stats

    # -- reduction --------------------------------------------------------- #

    def threads(self) -> List[str]:
        """Names of the threads that were profiled."""
        return [thread.name for _, thread in self._profiles]

    def layer_self_seconds(self) -> Dict[str, float]:
        """Profiler self time summed per ``src/repro/<layer>/`` package."""
        prefix = os.path.dirname(repro.__file__) + os.sep
        totals = dict.fromkeys(LAYERS, 0.0)
        for (filename, _, _), (_, _, self_time, _, _) in self.stats.items():
            if not filename.startswith(prefix):
                continue
            package, _, rest = filename[len(prefix):].partition(os.sep)
            if rest and package in totals:
                totals[package] += self_time
        return totals

    def metrics(self, extras: Dict[str, float]) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric this iteration produced.

        ``extras`` supplies what only the pipeline can observe:
        ``store_bytes``, ``queue_wait_s``, ``record_bytes`` and ``wall_s``.
        The service latency percentiles and the tracing overhead come from
        the untraced pass and are filled in by the caller.
        """
        stats, points, counters = self.stats, self.entry_points, self.counters

        def calls(name: str) -> int:
            return _calls(stats, points[name])

        def seconds(name: str) -> float:
            return _seconds(stats, points[name])

        values = {
            f"{layer}.self_s": value
            for layer, value in self.layer_self_seconds().items()
        }
        events = counters["events"]
        scouts = counters["scout_attempts"]
        place_calls = calls("place")
        host_pages = counters["host_pages"]
        values.update({
            "sim.events": events,
            "sim.host_ns_per_event": (
                seconds("simulate") * 1e9 / events if events else 0.0
            ),
            "sim.checkpoint.warmup_s": seconds("warmup"),
            "sim.checkpoint.warmups": calls("warmup"),
            "sim.checkpoint.restore_s": seconds("restore"),
            "sim.checkpoint.restores": calls("restore"),
            "sim.checkpoint.snapshot_s": seconds("snapshot"),
            "ssd.construct_s": seconds("construct"),
            "ssd.devices": calls("construct"),
            "ssd.simulate_s": seconds("simulate"),
            "venice.reserve_calls": calls("reserve"),
            "venice.reserve_s": seconds("reserve"),
            "venice.reserve_yield": (
                (scouts - counters["scout_failures"]) / scouts if scouts else 0.0
            ),
            "interconnect.transfers": counters["transfers"],
            "nand.block_probes": calls("block_probe"),
            "ftl.alloc_calls": calls("alloc"),
            "ftl.alloc_s": seconds("alloc"),
            "ftl.gc_triggers": calls("gc_trigger"),
            "ftl.write_amplification": (
                (host_pages + counters["internal_pages"]) / host_pages
                if host_pages else 0.0
            ),
            "ftl.gc_pages_migrated": counters["gc_pages_migrated"],
            "metrics.finalize_s": seconds("finalize"),
            "workloads.trace_s": seconds("trace"),
            "experiments.spec_s": seconds("make_spec"),
            "experiments.digests": calls("digest"),
            "experiments.store_get_s": seconds("store_get"),
            "experiments.store_put_s": seconds("store_put"),
            "experiments.store_bytes": extras["store_bytes"],
            "experiments.execute_self_s": max(
                0.0,
                seconds("execute")
                - sum(seconds(name) for name in _EXECUTE_CHILDREN),
            ),
            "fleet.dispatch_s": seconds("dispatch"),
            "fleet.dispatch_calls": calls("dispatch"),
            "fleet.place_calls": place_calls,
            "fleet.dispatch_yield": (
                counters["dispatch_kept"] / place_calls if place_calls else 0.0
            ),
            "fleet.qos_s": seconds("qos"),
            "fleet.rollup_s": seconds("rollup"),
            "service.schema_s": seconds("schema"),
            "service.jobstore_s": seconds("jobstore"),
            "service.queue_wait_s": extras["queue_wait_s"],
            "service.record_bytes": extras["record_bytes"],
            "trace.wall_s": extras["wall_s"],
        })
        return values
