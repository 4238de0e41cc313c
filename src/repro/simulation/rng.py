"""Named, seeded random-number streams.

Determinism rule: every stochastic component draws from its *own named
stream*, derived from the master seed and the stream name.  Adding a new
component therefore never perturbs the draws of existing components, and
two runs with the same seed produce identical histories regardless of
process interleaving.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is randomized per process and unusable here).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw uniform(low, high) from the named stream."""
        return self.stream(name).uniform(low, high)

    def choice(self, name: str, seq):
        """Draw one element uniformly from ``seq``."""
        return self.stream(name).choice(seq)

    def randint(self, name: str, low: int, high: int) -> int:
        """Draw an integer in [low, high] inclusive."""
        return self.stream(name).randint(low, high)

    def jitter(self, name: str, base: float, fraction: float) -> float:
        """Return ``base`` perturbed by up to +/- ``fraction`` of itself.

        Useful for desynchronising periodic processes (e.g. independent
        journal transfer loops) without changing their mean period.
        """
        if base < 0:
            raise ValueError(f"negative base: {base}")
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        spread = base * fraction
        return base + self.stream(name).uniform(-spread, spread)
