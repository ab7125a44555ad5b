"""Deterministic randomness helpers.

Two generators live here:

* :class:`DeterministicRng` -- a seeded ``random.Random`` wrapper with the
  distribution helpers the workload generators need (Poisson gaps, lognormal
  sizes, zipfian keys).  Keeping one named stream per consumer makes every
  simulation bit-reproducible regardless of module import order.

* :class:`Lfsr2` -- the 2-bit linear-feedback shift register the Venice
  router uses to break ties between two candidate output ports (paper §4.3,
  Algorithm 1 line 28).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, TypeVar

from repro.errors import SimulationError

T = TypeVar("T")


class DeterministicRng:
    """Seeded random stream with the distributions used by the simulator."""

    def __init__(self, seed: int, stream: str = "") -> None:
        # Mix the stream name into the seed so independently-named streams
        # with the same base seed are decorrelated but still reproducible.
        mixed = seed
        for char in stream:
            mixed = (mixed * 1000003 + ord(char)) % (2**63)
        self._random = random.Random(mixed)
        self.seed = seed
        self.stream = stream

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, options: Sequence[T]) -> T:
        """One uniformly-chosen element of ``options``."""
        return self._random.choice(options)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def exponential_gap(self, mean: float) -> float:
        """Exponential inter-arrival gap (Poisson arrivals) with given mean."""
        if mean <= 0:
            raise SimulationError(f"mean gap must be positive: {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal(self, mean: float, sigma: float = 0.6) -> float:
        """Lognormal sample whose *arithmetic* mean is ``mean``.

        Request sizes in block traces are heavily right-skewed; a lognormal
        with sigma around 0.6 reproduces that shape while matching the
        published average size.
        """
        if mean <= 0:
            raise SimulationError(f"lognormal mean must be positive: {mean}")
        mu = math.log(mean) - 0.5 * sigma * sigma
        return self._random.lognormvariate(mu, sigma)

    def zipf_index(self, n: int, skew: float = 0.99) -> int:
        """Zipfian index in [0, n) via rejection-inversion (Hormann).

        Used by the YCSB-style generators: YCSB's core workloads draw keys
        from a zipfian distribution with constant 0.99.
        """
        if n <= 0:
            raise SimulationError(f"zipf needs n >= 1, got {n}")
        if n == 1:
            return 0
        # Simple inverse-CDF on the harmonic weights with caching.
        harmonics = _harmonic_cache(n, skew)
        target = self._random.random() * harmonics[-1]
        low, high = 0, n - 1
        while low < high:
            mid = (low + high) // 2
            if harmonics[mid] < target:
                low = mid + 1
            else:
                high = mid
        return low


_HARMONIC_CACHE: dict = {}


def _harmonic_cache(n: int, skew: float) -> List[float]:
    key = (n, skew)
    cached = _HARMONIC_CACHE.get(key)
    if cached is None:
        total = 0.0
        cached = []
        for rank in range(1, n + 1):
            total += 1.0 / (rank**skew)
            cached.append(total)
        _HARMONIC_CACHE[key] = cached
    return cached


class Lfsr2:
    """2-bit maximal-length LFSR (period 3) for router tie-breaking.

    Polynomial x^2 + x + 1 over GF(2): state cycles 01 -> 10 -> 11 -> 01.
    The router needs a single pseudo-random *bit* to pick between at most
    two minimal output ports, and a 2-bit value when misrouting among up to
    three non-minimal candidates.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int = 1) -> None:
        self.state = (seed & 0b11) or 0b01

    def step(self) -> int:
        """Advance one cycle and return the new 2-bit state (1..3)."""
        bit0 = self.state & 1
        bit1 = (self.state >> 1) & 1
        feedback = bit0 ^ bit1
        self.state = ((self.state << 1) | feedback) & 0b11
        if self.state == 0:  # unreachable for maximal LFSR, guard anyway
            self.state = 0b01
        return self.state

    def pick(self, count: int) -> int:
        """Index in [0, count) chosen by the LFSR stream."""
        if count <= 0:
            raise SimulationError(f"pick needs count >= 1, got {count}")
        if count == 1:
            return 0
        return self.step() % count
