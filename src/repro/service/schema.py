"""``POST /v1/runs`` payloads: validation and canonicalisation.

Submission is a **pure function of the JSON body**: every field resolves
through :func:`~repro.experiments.spec.make_spec` (or
:func:`~repro.fleet.spec.make_fleet_spec`) at acceptance time, exactly the
way the one-shot CLI resolves its flags, and the resulting canonical spec
dicts are what the job table persists.  Consequences:

* the job id *is* the spec content digest (run jobs), or the sha256 of
  the ordered member digests (sweep/fleet jobs) -- resubmitting the same
  payload maps onto the same job, so duplicate submissions are idempotent
  with no extra machinery;
* a restarted daemon re-executes from the persisted canonical specs, not
  from the original request body, so execution cannot depend on the
  environment at execution time;
* validation errors are ordinary library errors
  (:class:`~repro.errors.ConfigurationError` and friends) carrying the
  same messages ``make_spec`` raises everywhere else; the HTTP layer maps
  them to structured 400 responses.

Three payload kinds are accepted (``"kind"`` defaults to ``"run"``):

========  ===========================================================
``run``   one (design, preset, workload) simulation
``sweep``  the cross product of ``designs`` x ``workloads``
``fleet``  one multi-SSD fleet (devices, tenants, placement, sample,
           QoS policy, burst clause)
========  ===========================================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentScale, RunSpec, make_spec
from repro.fleet.spec import FleetSpec
from repro.ssd.factory import design_names

#: Payload kinds the service accepts.
JOB_KINDS = ("run", "sweep", "fleet")

_COMMON_KEYS = {
    "kind", "preset", "requests", "seed", "faults", "warmup", "early_stop",
}
_KEYS_BY_KIND = {
    "run": _COMMON_KEYS | {"design", "workload"},
    "sweep": _COMMON_KEYS | {"designs", "workloads"},
    # Fleet members carry their own digests; the sweep-amortization knobs
    # (warmup/early_stop) are single-device machinery and are rejected here.
    "fleet": (_COMMON_KEYS - {"warmup", "early_stop"}) | {
        "design", "designs", "workload", "devices", "tenants", "placement",
        "sample", "qos", "burst",
    },
}


@dataclass(frozen=True)
class Job:
    """One validated submission, ready to queue and execute.

    ``specs`` are the member :class:`~repro.experiments.spec.RunSpec`\\ s
    in execution order; ``fleet`` is set only for fleet jobs (its members
    are exactly ``specs``).  ``canonical`` is the payload the job table
    persists -- re-executable without the original request body.
    """

    job_id: str
    kind: str
    label: str
    specs: Tuple[RunSpec, ...]
    canonical: Dict[str, object] = field(compare=False)
    fleet: Optional[FleetSpec] = field(default=None, compare=False)


def _reject_unknown_keys(payload: Mapping[str, object], kind: str) -> None:
    unknown = sorted(set(payload) - _KEYS_BY_KIND[kind])
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) for a {kind!r} submission: "
            f"{', '.join(unknown)} (accepted: "
            f"{', '.join(sorted(_KEYS_BY_KIND[kind]))})"
        )


def _str_field(
    payload: Mapping[str, object], key: str, default: Optional[str]
) -> Optional[str]:
    value = payload.get(key, default)
    if value is None or isinstance(value, str):
        return value
    raise ConfigurationError(
        f"field {key!r} must be a string, got {type(value).__name__}"
    )


def _int_field(
    payload: Mapping[str, object], key: str, default: int, minimum: int
) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"field {key!r} must be an integer, got {type(value).__name__}"
        )
    if value < minimum:
        raise ConfigurationError(
            f"field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _list_field(
    payload: Mapping[str, object], key: str, default: Sequence[str]
) -> List[str]:
    value = payload.get(key)
    if value is None:
        return list(default)
    if not isinstance(value, list) or not value or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigurationError(
            f"field {key!r} must be a non-empty list of strings"
        )
    return list(value)


def _amortization(payload: Mapping[str, object]) -> Dict[str, Optional[str]]:
    return {
        "faults": _str_field(payload, "faults", None),
        "warmup": _str_field(payload, "warmup", None),
        "early_stop": _str_field(payload, "early_stop", None),
    }


def _digest_of(parts: Dict[str, object]) -> str:
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def job_from_payload(payload: object) -> Job:
    """Validate one ``POST /v1/runs`` body into a :class:`Job`.

    Raises :class:`~repro.errors.ConfigurationError` (or another library
    error, e.g. a :class:`~repro.errors.WorkloadError` for an unreadable
    trace file) with a client-actionable message on any malformed field;
    the HTTP layer turns those into structured 400 responses verbatim.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"the request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    kind = payload.get("kind", "run")
    if kind not in JOB_KINDS:
        raise ConfigurationError(
            f"unknown job kind {kind!r} (choose from {', '.join(JOB_KINDS)})"
        )
    _reject_unknown_keys(payload, kind)
    preset = _str_field(payload, "preset", "performance-optimized")
    # The same requests/seed -> scale mapping the CLI applies.
    scale = ExperimentScale.for_requests(
        _int_field(payload, "requests", 600, 1),
        _int_field(payload, "seed", 42, 0),
    )
    knobs = _amortization(payload)
    if kind == "run":
        return _run_job(payload, preset, scale, knobs)
    if kind == "sweep":
        return _sweep_job(payload, preset, scale, knobs)
    return _fleet_job(payload, preset, scale, knobs)


def _run_job(
    payload: Mapping[str, object],
    preset: str,
    scale: ExperimentScale,
    knobs: Dict[str, Optional[str]],
) -> Job:
    design = _str_field(payload, "design", "venice")
    workload = _str_field(payload, "workload", "hm_0")
    spec = make_spec(design, preset, workload, scale, **knobs)
    return Job(
        job_id=spec.digest,
        kind="run",
        label=spec.label(),
        specs=(spec,),
        canonical={"kind": "run", "specs": [spec.to_dict()]},
    )


def _sweep_job(
    payload: Mapping[str, object],
    preset: str,
    scale: ExperimentScale,
    knobs: Dict[str, Optional[str]],
) -> Job:
    designs = _list_field(payload, "designs", design_names())
    workloads = _list_field(payload, "workloads", ["hm_0"])
    specs = tuple(
        make_spec(design, preset, workload, scale, **knobs)
        for workload in workloads
        for design in designs
    )
    job_id = _digest_of(
        {"kind": "sweep", "specs": [spec.digest for spec in specs]}
    )
    return Job(
        job_id=job_id,
        kind="sweep",
        label=(
            f"sweep[{len(designs)} designs x {len(workloads)} workloads]"
            f"/{specs[0].preset}"
        ),
        specs=specs,
        canonical={
            "kind": "sweep", "specs": [spec.to_dict() for spec in specs],
        },
    )


def _fleet_job(
    payload: Mapping[str, object],
    preset: str,
    scale: ExperimentScale,
    knobs: Dict[str, Optional[str]],
) -> Job:
    from repro.fleet.spec import make_fleet_spec

    if "designs" in payload and "design" in payload:
        raise ConfigurationError(
            "give either 'design' (replicated) or 'designs' (per member), "
            "not both"
        )
    workload = _str_field(payload, "workload", "hm_0")
    devices = _int_field(payload, "devices", 2, 1)
    explicit = (
        _list_field(payload, "designs", ())
        if "designs" in payload
        else None
    )
    fleet = make_fleet_spec(
        explicit if explicit else _str_field(payload, "design", "venice"),
        preset,
        workload,
        scale,
        devices=len(explicit) if explicit else devices,
        placement=_str_field(payload, "placement", "round-robin"),
        tenants=_int_field(payload, "tenants", 8, 1),
        sample=_int_field(payload, "sample", 0, 0),
        qos=_str_field(payload, "qos", "") or "",
        burst=_str_field(payload, "burst", "") or "",
        faults=[knobs["faults"]] * (len(explicit) if explicit else devices)
        if knobs["faults"]
        else None,
    )
    # The members carry the placement, tenants, QoS policy and burst.
    canonical: Dict[str, object] = {
        "kind": "fleet",
        "members": [member.to_dict() for member in fleet.members],
        "sample": fleet.sample,
    }
    return Job(
        job_id=fleet.digest,
        kind="fleet",
        label=fleet.label(),
        specs=fleet.members,
        canonical=canonical,
        fleet=fleet,
    )


def job_from_record(job_id: str, canonical: Mapping[str, object]) -> Job:
    """Rebuild an executable :class:`Job` from its persisted canonical form.

    This is what a restarted daemon executes re-adopted jobs from: the
    specs come back exactly as accepted (``RunSpec.from_dict`` is the
    lossless inverse of ``to_dict``), so adoption can never change what a
    job simulates.  A fleet record may also hold the placement, tenants,
    QoS policy and burst clause its members carry; older versions wrote
    those copies, and they are ignored.
    """
    kind = str(canonical["kind"])
    if kind == "fleet":
        fleet = FleetSpec(
            members=tuple(
                RunSpec.from_dict(member) for member in canonical["members"]
            ),
            sample=int(canonical["sample"]),
        )
        return Job(
            job_id=job_id,
            kind=kind,
            label=fleet.label(),
            specs=fleet.members,
            canonical=dict(canonical),
            fleet=fleet,
        )
    specs = tuple(RunSpec.from_dict(spec) for spec in canonical["specs"])
    label = (
        specs[0].label() if kind == "run" else f"sweep[{len(specs)} specs]"
    )
    return Job(
        job_id=job_id,
        kind=kind,
        label=label,
        specs=specs,
        canonical=dict(canonical),
    )
