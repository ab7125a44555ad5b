"""Determinism regression: serial vs parallel execution, faulted and not.

A faulted simulation must remain a pure function of its spec: the same spec
executed in-process and in ``--jobs 4`` worker processes produces
byte-identical ``RunResult.to_dict()`` payloads.
"""

import json

from repro.experiments.executor import Executor, execute_specs
from repro.experiments.spec import ExperimentScale, make_spec

SCALE = ExperimentScale(
    requests=48,
    requests_per_mix_constituent=24,
    blocks_per_plane=16,
    pages_per_block=16,
)

FAULTS = (
    "0 link (0,2)-(0,3) down; 0 link (3,4)-(3,5) down; "
    "100us ecc-burst rate=0.3 for=500us; 0 die 1.2.0 down"
)


def spec_pair():
    pristine = make_spec("venice", "performance-optimized", "hm_0", SCALE)
    faulted = make_spec(
        "venice", "performance-optimized", "hm_0", SCALE, faults=FAULTS
    )
    return [pristine, faulted]


def payloads(results, specs):
    return [
        json.dumps(results[spec].to_dict(), sort_keys=True) for spec in specs
    ]


def test_faulted_and_pristine_specs_are_serial_parallel_identical():
    specs = spec_pair()
    serial = execute_specs(specs, executor=Executor())
    parallel = execute_specs(specs, executor=Executor(jobs=4))
    assert payloads(serial, specs) == payloads(parallel, specs)


def test_faulted_execution_is_repeatable_in_process():
    specs = spec_pair()
    first = execute_specs(specs, executor=Executor())
    second = execute_specs(specs, executor=Executor())
    assert payloads(first, specs) == payloads(second, specs)


def test_degraded_designs_are_serial_parallel_identical():
    """Blocking fabrics (stalled requests) must also replay identically."""
    specs = [
        make_spec(design, "performance-optimized", "hm_0", SCALE, faults=FAULTS)
        for design in ("baseline", "nossd", "pnssd")
    ]
    serial = execute_specs(specs, executor=Executor())
    parallel = execute_specs(specs, executor=Executor(jobs=4))
    assert payloads(serial, specs) == payloads(parallel, specs)
    # The fault set actually bites: at least one design stalled requests.
    assert any(
        serial[spec].extra["requests_stalled"] > 0 for spec in specs
    )
