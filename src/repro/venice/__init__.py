"""Venice: the paper's contribution.

A low-cost interconnection network of *flash nodes* (flash chip + separate
router chip), circuit-switched via scout-packet path reservation, routed by
a non-minimal fully-adaptive backtracking algorithm (paper §4).

Modules:

* :mod:`repro.venice.network` -- the mesh's reservation state (links,
  ejection and injection ports, each router's table rows and tie-break
  LFSR) and the scout walk that reserves a circuit: Algorithm 1
  (output-port selection) on integer port codes, with the livelock caps
  (§4.3),
* :mod:`repro.venice.degraded` -- dead links/routers and the partition
  oracle,
* :mod:`repro.venice.fabric` -- the :class:`~repro.interconnect.base.Fabric`
  implementation: flash-controller selection, reservation retries, circuit
  hold and release.
"""

from repro.venice.network import VeniceNetwork, ReservedCircuit, ScoutResult
from repro.venice.fabric import VeniceFabric

__all__ = [
    "VeniceNetwork",
    "ReservedCircuit",
    "ScoutResult",
    "VeniceFabric",
]
