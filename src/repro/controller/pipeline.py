"""Transaction service pipeline (fabric-agnostic).

The pipeline realises the Figure 3 service timeline for every design:

* READ:    [path: CMD] -> [die: tR] -> [path: data out] -> [ECC decode]
* PROGRAM: [ECC encode] -> [path: CMD + data in] -> [die: tPROG]
* ERASE:   [path: CMD] -> [die: tBERS]

The die is acquired before the command is sent (a command to a busy die
would just sit in the chip's queue) and held through the flash operation;
path resources are held only during CMD/data phases, which is exactly what
creates the path-conflict window the paper studies.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.config.ssd_config import SsdConfig
from repro.controller.ecc import EccEngine
from repro.controller.transaction import FlashTransaction, TransactionKind
from repro.errors import SimulationError
from repro.interconnect.base import Fabric
from repro.nand.array import FlashArray
from repro.sim.engine import Engine


class TransactionPipeline:
    """Drives flash transactions end to end over a given fabric."""

    def __init__(
        self,
        engine: Engine,
        config: SsdConfig,
        array: FlashArray,
        fabric: Fabric,
        ecc: Optional[EccEngine] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.array = array
        self.fabric = fabric
        self.ecc = ecc if ecc is not None else EccEngine(config.ecc_latency_ns)
        self.reads_completed = 0
        self.programs_completed = 0
        self.erases_completed = 0
        # Operations serviced by a failed die (fault injection): reads take
        # the full re-read ladder (1 + ecc.max_retries sense passes, the FC
        # "retries the read process" with shifted reference voltages);
        # programs/erases take one status-fail retry (x2).  See DESIGN.md §7.
        self.degraded_ops = 0

    # ------------------------------------------------------------------ #

    def service(self, transaction: FlashTransaction) -> Generator:
        """Process generator: drive one transaction to completion.

        The hot read/program phases live inline rather than in ``yield
        from`` sub-generators: a delegating frame is re-traversed on every
        resume, which is pure overhead on the simulator's hottest path.
        Erases are rare enough to stay delegated.
        """
        engine = self.engine
        transaction.issued_at = engine.now
        kind = transaction.kind
        if kind is TransactionKind.READ:
            die = self.array.die_for(transaction.primary)
            die_requested = engine.now
            die_lease = yield die.resource.acquire()
            transaction.die_wait_ns += engine.now - die_requested

            # Command phase on the path; the die is held so the chip starts
            # the sensing operation as soon as the command lands.
            outcome = yield from self.fabric.transfer(
                transaction.chip, 0, include_command=True
            )
            if outcome.conflicted:
                transaction.path_conflict = True

            operation_ns = die.operation_latency_ns(kind)
            if die.failed:
                operation_ns *= 1 + self.ecc.max_retries
                self.degraded_ops += 1
            yield operation_ns
            die.apply(kind, transaction.addresses)
            die_lease.release()

            # Data-out phase: a second path traversal (Venice reserves a
            # second circuit here; the baseline re-arbitrates the channel).
            outcome = yield from self.fabric.transfer(
                transaction.chip, transaction.payload_bytes, include_command=False
            )
            if outcome.conflicted:
                transaction.path_conflict = True

            decode = self.ecc.decode_latency_ns(transaction.plane_count)
            if decode:
                yield decode
            self.reads_completed += 1
        elif kind is TransactionKind.PROGRAM:
            die = self.array.die_for(transaction.primary)

            encode = self.ecc.encode_latency_ns(transaction.plane_count)
            if encode:
                yield encode

            die_requested = engine.now
            die_lease = yield die.resource.acquire()
            transaction.die_wait_ns += engine.now - die_requested

            outcome = yield from self.fabric.transfer(
                transaction.chip, transaction.payload_bytes, include_command=True
            )
            if outcome.conflicted:
                transaction.path_conflict = True

            operation_ns = die.operation_latency_ns(kind)
            if die.failed:
                operation_ns *= 2
                self.degraded_ops += 1
            yield operation_ns
            die.apply(kind, transaction.addresses)
            die_lease.release()
            self.programs_completed += 1
        elif kind is TransactionKind.ERASE:
            yield from self._service_erase(transaction)
            self.erases_completed += 1
        else:  # pragma: no cover - exhaustive enum
            raise SimulationError(f"unknown transaction kind {transaction.kind}")
        transaction.completed_at = self.engine.now
        return transaction

    # ------------------------------------------------------------------ #

    def _service_erase(self, transaction: FlashTransaction) -> Generator:
        die = self.array.die_for(transaction.primary)

        die_requested = self.engine.now
        die_lease = yield die.resource.acquire()
        transaction.die_wait_ns += self.engine.now - die_requested

        outcome = yield from self.fabric.transfer(
            transaction.chip, 0, include_command=True
        )
        if outcome.conflicted:
            transaction.path_conflict = True

        operation_ns = die.operation_latency_ns(TransactionKind.ERASE)
        if die.failed:
            operation_ns *= 2
            self.degraded_ops += 1
        yield operation_ns
        die.apply(TransactionKind.ERASE, transaction.addresses)
        die_lease.release()
