"""The ``key number; key number`` clause grammar of the spec values.

:class:`~repro.sim.checkpoint.WarmupPhase` and
:class:`~repro.sim.convergence.EarlyStopPolicy` both parse strings such as
``"fill 0.5; steps 400"`` through :func:`parse_clauses`.
"""

from __future__ import annotations

import re
from typing import Callable, Dict

from repro.errors import ConfigurationError


def parse_clauses(
    spec: str, grammar: str, kinds: Dict[str, Callable[[str], float]]
) -> Dict[str, float]:
    """Parse ``spec`` into ``{key: value}`` over the clause keys of ``kinds``.

    ``kinds`` maps each key to the type its number parses as (``int`` or
    ``float``).  Clauses may come in any order and any subset, each at most
    once; empty clauses are skipped.  Errors name the ``grammar`` (e.g.
    ``"warm-up"``) and the offending clause.
    """
    pattern = re.compile(rf"^\s*({'|'.join(kinds)})\s+([0-9.eE+-]+)\s*$")
    values: Dict[str, float] = {}
    for clause in str(spec).split(";"):
        if not clause.strip():
            continue
        match = pattern.match(clause)
        if match is None:
            raise ConfigurationError(
                f"unrecognised {grammar} clause: {clause.strip()!r}"
            )
        key, raw = match.groups()
        if key in values:
            raise ConfigurationError(f"duplicate {grammar} clause: {key!r}")
        try:
            values[key] = kinds[key](raw)
        except ValueError as error:
            raise ConfigurationError(
                f"bad {grammar} value for {key!r}: {raw!r}"
            ) from error
    return values
