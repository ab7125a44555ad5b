"""Flash controller layer: transactions and their service pipeline.

The flash controller (paper §2.2) sits between the FTL and the flash chips:
it carries each flash transaction's command and data over the communication
fabric, runs the ECC pipeline, serialises die occupancy, and hands the
transaction's kind and addresses to the die, which executes them.  A
:class:`FlashTransaction` is the one record of an operation from the FTL
to the die.  The transaction service processes here are fabric-agnostic --
the same pipeline drives all six designs.
"""

from repro.controller.transaction import (
    FlashTransaction,
    TransactionKind,
    TransactionSource,
)
from repro.controller.pipeline import TransactionPipeline
from repro.controller.ecc import EccEngine

__all__ = [
    "FlashTransaction",
    "TransactionKind",
    "TransactionSource",
    "TransactionPipeline",
    "EccEngine",
]
