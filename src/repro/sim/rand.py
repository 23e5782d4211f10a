"""Seeded, named random streams for reproducible experiments.

Every source of randomness in the simulator (per-link delays, loss,
duplication, workload think times) draws from its own named stream derived
from a single experiment seed.  Adding a new consumer of randomness therefore
does not perturb the draws seen by existing consumers, which keeps recorded
experiment results stable as the library evolves.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict

__all__ = ["RandomSource"]


class RandomSource:
    """A factory of independent named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        The stream's seed mixes the experiment seed with a CRC of the name,
        so distinct names give de-correlated streams and the same name
        always gives the same sequence for a given experiment seed.
        """
        rng = self._streams.get(name)
        if rng is None:
            mixed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) \
                & 0xFFFFFFFFFFFFFFFF
            rng = random.Random(mixed)
            self._streams[name] = rng
        return rng
