"""Device-state checkpointing: snapshot a warmed-up SSD, restore it later.

Every cell of a sweep matrix historically re-simulated the same warm-up --
preconditioning the logical space and aging the allocator -- before its
measured phase, even though the warm-up is identical across every cell that
shares a geometry/design/warm-up recipe.  This module captures the device
state *between* the two phases as a plain-JSON value so one warm-up
simulation can seed an entire matrix:

* :class:`WarmupPhase` -- the spec-grammar value (``"fill 0.5; steps 400"``)
  that declares what the warm-up does, carried by
  :class:`~repro.experiments.spec.RunSpec` and folded into the *checkpoint
  digest* that content-addresses the snapshot,
* :func:`snapshot_device` / :func:`restore_device` -- serialise and rebuild
  the mutable device state: per-block NAND occupancy and erase counts,
  the logical-to-physical mapping, and allocator cursors and RNG stream
  (the snapshot's ``cache`` field is a fixed empty list: the device models
  no DRAM data cache, and the field stays for format compatibility),
* the result store (:class:`~repro.experiments.store.ResultStore`) keeps
  each snapshot as ``checkpoints/<checkpoint-digest>.json``, and the
  executor hands every run its snapshot by value
  (:meth:`~repro.experiments.spec.RunSpec.execute`).

Snapshots are taken at *quiescence* -- no in-flight programs, an empty event
loop -- which makes the state small and exactly reconstructible: a block's
occupancy is fully described by its erase count plus one ``'v'``/``'i'``
character per handed-out page, because quiescent NAND state is always a
programmed prefix followed by free pages.  Telemetry counters (plane
read/program/erase tallies, FTL counters, die command counts) are *not*
snapshotted: the measured phase starts them from zero on a freshly built
device in both the cold and the restored path, which is what makes a
checkpointed run bit-identical to a cold run of the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import (
    ConfigurationError,
    MappingError,
    NandProtocolError,
    SimulationError,
)
from repro.nand.chip import PageState
from repro.sim.clauses import parse_clauses

#: Snapshot payload format version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class WarmupPhase:
    """What a spec's warm-up does before the measured phase begins.

    A warm-up is ``fill`` (timing-free preconditioning of a fraction of the
    logical space, exactly :meth:`repro.ftl.ftl.Ftl.precondition`), an
    optional ``churn`` stage (timing-free overwrite of a fraction of the
    filled pages via :meth:`repro.ftl.ftl.Ftl.churn`, spreading invalid
    pages across closed blocks so the device starts in GC steady state
    rather than a pristine fill), followed by ``steps`` timed requests of a
    fixed synthetic aging workload that exercises the allocator and the
    garbage collector.  Instances are immutable values round-trippable
    through the spec grammar::

        fill 0.5; churn 0.3; steps 400

    Zero-valued clauses are omitted from the canonical form, so two phases
    that mean the same thing always serialise identically (and therefore
    produce the same checkpoint digest).  Pre-churn phase strings
    canonicalise exactly as before, so existing digests are unchanged.
    """

    #: Fraction of the logical space preconditioned before the aging steps.
    fill: float = 0.0
    #: Fraction of the filled pages overwritten after the fill (GC aging).
    churn: float = 0.0
    #: Number of timed synthetic aging requests replayed after the fill.
    steps: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fill <= 1.0:
            raise ConfigurationError(
                f"warm-up fill must be in [0, 1], got {self.fill!r}"
            )
        if not 0.0 <= self.churn <= 1.0:
            raise ConfigurationError(
                f"warm-up churn must be in [0, 1], got {self.churn!r}"
            )
        if self.churn > 0.0 and self.fill == 0.0:
            raise ConfigurationError(
                "warm-up churn overwrites filled pages: churn > 0 requires "
                "fill > 0"
            )
        if self.steps < 0:
            raise ConfigurationError(
                f"warm-up steps must be >= 0, got {self.steps!r}"
            )
        if self.fill == 0.0 and self.steps == 0:
            raise ConfigurationError(
                "empty warm-up phase: leave the spec's warmup field empty "
                "instead"
            )

    @classmethod
    def parse(cls, spec: str) -> "WarmupPhase":
        """Parse ``"fill F; churn C; steps N"`` (any clause may be omitted)."""
        values = parse_clauses(
            spec, "warm-up", {"fill": float, "churn": float, "steps": int}
        )
        return cls(
            fill=values.get("fill", 0.0),
            churn=values.get("churn", 0.0),
            steps=values.get("steps", 0),
        )

    def to_spec(self) -> str:
        """Canonical grammar string (zero-valued clauses omitted)."""
        parts: List[str] = []
        if self.fill:
            parts.append(f"fill {self.fill:g}")
        if self.churn:
            parts.append(f"churn {self.churn:g}")
        if self.steps:
            parts.append(f"steps {self.steps}")
        return "; ".join(parts)


def _geometry_payload(geometry) -> Dict[str, int]:
    """The geometry fields a snapshot must agree on to be restorable."""
    return {
        "channels": geometry.channels,
        "chips_per_channel": geometry.chips_per_channel,
        "dies_per_chip": geometry.dies_per_chip,
        "planes_per_die": geometry.planes_per_die,
        "blocks_per_plane": geometry.blocks_per_plane,
        "pages_per_block": geometry.pages_per_block,
    }


#: Snapshot character of each page state below a block's allocation
#: pointer.  At quiescence only valid and invalid pages occur there.
_PAGE_CHARS = {PageState.VALID: "v", PageState.INVALID: "i"}


def snapshot_device(device) -> dict:
    """Serialise a quiescent device's mutable state to a plain-JSON value.

    The device must be at quiescence (no in-flight programs, event loop
    drained) -- :class:`SimulationError` is raised otherwise.  The snapshot
    covers per-block NAND occupancy ('v'/'i' per handed-out page, erase
    count), the LPN->PPN mapping, and allocator cursors plus the allocator
    RNG stream.  Its ``cache`` field is always ``[]``: the device models no
    DRAM cache, and the field stays so the format is unchanged.  The
    snapshot is built from JSON-native values only (lists rather than
    tuples, ``str`` dict keys), so an in-process snapshot is the same value
    a disk-loaded one would be.
    """
    blocks: List[list] = []
    planes = [plane for _, _, plane in device.array.iter_planes()]
    for plane_flat, plane in enumerate(planes):
        for block in plane.blocks:
            if block.pending_programs:
                raise SimulationError(
                    f"snapshot of a non-quiescent device: block "
                    f"{block.index} of plane {plane_flat} has "
                    f"{block.pending_programs} in-flight programs"
                )
            written = block.allocation_pointer
            if not written and not block.erase_count and not block.invalid_count:
                continue  # untouched block: implicit in the snapshot
            pages = "".join(
                [_PAGE_CHARS[state] for state in block.page_states[:written]]
            )
            blocks.append([plane_flat, block.index, block.erase_count, pages])
    allocator = device.ftl.allocator
    rng_state = allocator._rng._random.getstate()
    mapping = dict(device.ftl.mapping.items())
    return {
        "version": CHECKPOINT_VERSION,
        "geometry": _geometry_payload(device.config.geometry),
        "blocks": blocks,
        "mapping": [[lpn, mapping[lpn]] for lpn in sorted(mapping)],
        "allocator": {
            "open_blocks": [
                [cursor.plane_flat, cursor.open_block]
                for cursor in allocator._cursors
                if cursor.open_block is not None
            ],
            "next_plane": allocator._next_plane,
            "allocations": allocator.allocations,
            "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
        },
        "cache": [],
    }


def _checked_index(value, bound: int, field: str) -> int:
    """``value`` if it is an int in ``[0, bound)``; a named error otherwise.

    Snapshot indices are used to subscript lists, where a negative value
    would silently pick an element from the end.
    """
    if type(value) is not int or not 0 <= value < bound:
        raise SimulationError(
            f"corrupt checkpoint: {field} {value!r} outside [0, {bound})"
        )
    return value


def restore_device(device, state: dict) -> None:
    """Rebuild a snapshot's state onto a freshly constructed device.

    The device must be pristine (no allocations, no erases) and share the
    snapshot's NAND geometry; :class:`SimulationError` is raised otherwise.
    Every plane and block index the snapshot names is checked against the
    geometry, each plane may hold one open block, every mapped LPN must
    lie in the logical space and every mapped PPN on a valid page, and
    after restoration the FTL's cross-layer consistency invariant is
    re-checked (:meth:`repro.ftl.ftl.Ftl.assert_consistent`), so a corrupt
    snapshot can never silently seed a measured phase.  A non-empty
    ``cache`` section is refused: the device has no DRAM cache to hold it.
    """
    if state.get("version") != CHECKPOINT_VERSION:
        raise SimulationError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    geometry = device.config.geometry
    expected = _geometry_payload(geometry)
    if state.get("geometry") != expected:
        raise SimulationError(
            f"checkpoint geometry {state.get('geometry')} does not match "
            f"device geometry {expected}"
        )
    if state["cache"]:
        raise SimulationError(
            f"checkpoint cache section holds {len(state['cache'])} lines; "
            f"the device models no DRAM cache"
        )
    planes = [plane for _, _, plane in device.array.iter_planes()]
    blocks_per_plane = expected["blocks_per_plane"]
    pages_per_block = expected["pages_per_block"]
    # What each flat physical page holds per the snapshot: b"v", b"i", or
    # 0 for a free page.
    occupancy = bytearray(geometry.total_pages)
    for plane_flat, block_index, erase_count, pages in state["blocks"]:
        # Inline rather than _checked_index: this loop runs once per written
        # block on every restore.  A non-int index still fails here, with a
        # TypeError.
        if not (0 <= plane_flat < len(planes)
                and 0 <= block_index < blocks_per_plane):
            raise SimulationError(
                f"corrupt checkpoint: blocks entry names block "
                f"{block_index!r} of plane {plane_flat!r}, outside "
                f"{len(planes)} planes x {blocks_per_plane} blocks"
            )
        block = planes[plane_flat].blocks[block_index]
        try:
            # The block owns its restore path (and its invariants): a
            # corrupt snapshot -- bad page states, overlong fill, negative
            # erase count, non-pristine target -- is rejected there.
            block.restore(pages, erase_count)
        except NandProtocolError as error:
            raise SimulationError(
                f"corrupt checkpoint for block {block_index} of plane "
                f"{plane_flat}: {error}"
            ) from error
        first = (plane_flat * blocks_per_plane + block_index) * pages_per_block
        occupancy[first:first + len(pages)] = pages.encode()
    _restore_mapping(device.ftl.mapping, state["mapping"], occupancy)
    allocator = device.ftl.allocator
    section = state["allocator"]
    opened = set()
    for plane_flat, open_block in section["open_blocks"]:
        _checked_index(plane_flat, len(planes), "allocator.open_blocks plane")
        if plane_flat in opened:
            raise SimulationError(
                f"corrupt checkpoint: allocator.open_blocks names plane "
                f"{plane_flat} twice"
            )
        opened.add(plane_flat)
        allocator._cursors[plane_flat].open_block = _checked_index(
            open_block, blocks_per_plane, "allocator.open_blocks block"
        )
    allocator._next_plane = _checked_index(
        section["next_plane"], len(planes), "allocator.next_plane"
    )
    allocator.allocations = section["allocations"]
    rng = section["rng"]
    allocator._rng._random.setstate((rng[0], tuple(rng[1]), rng[2]))
    device.ftl.assert_consistent()


def _restore_mapping(mapping, pairs: List[list], occupancy: bytearray) -> None:
    """Load a snapshot's ``[lpn, ppn]`` pairs, checked in bulk.

    The PPN column must lie in the array, every PPN must name a page the
    snapshot's blocks hold as valid (one lookup per pair in
    ``occupancy``), and :meth:`~repro.ftl.mapping.MappingTable.load`
    checks the LPN column's range and rejects repeats.
    """
    lpns = [lpn for lpn, _ in pairs]
    ppns = [ppn for _, ppn in pairs]
    if ppns:
        low, high = min(ppns), max(ppns)
        if low < 0 or high >= len(occupancy):
            raise SimulationError(
                f"corrupt checkpoint: mapping PPN "
                f"{low if low < 0 else high} outside [0, {len(occupancy)})"
            )
        held = bytes(map(occupancy.__getitem__, ppns))
        if held.strip(b"v"):
            index = next(k for k, page in enumerate(held) if page != ord("v"))
            raise SimulationError(
                f"corrupt checkpoint: mapping PPN {ppns[index]} of LPN "
                f"{lpns[index]} is not a valid page"
            )
    try:
        mapping.load(lpns, ppns)
    except MappingError as error:
        raise SimulationError(f"corrupt checkpoint: mapping {error}") from error
