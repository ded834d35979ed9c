"""Deterministic seeded randomness.

All randomized routines take a SeededStream rather than a bare seed, so
that repeated runs are byte-for-byte reproducible and independent
substreams can be split off without coordination.  The underlying
generator is Philox (4x64, counter-based), keyed by the uint64 pair
(seed mod 2^64, stream mod 2^64); the same pair yields the same draws on
every platform.  Being counter-based, one Philox re-keyed to a
substream's key with its counter at 0 and its buffer empty draws exactly
what that substream's own generator draws (`substream_generators`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

PRNG_ID = "philox4x64"

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededStream:
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "SeededStream":
        """A stream independent of self, deterministic in (self, index)."""
        return SeededStream(self.seed, self._child(index))

    def _child(self, index: int) -> int:
        return (self.stream * 1_000_003 + index + 1) & _MASK64

    def substream_generators(self, count: int) -> Iterator[np.random.Generator]:
        """What substream(t).generator() draws, for t = 0, ..., count - 1
        in turn, from one generator re-keyed before each t; each one
        yielded is valid until the next is taken."""
        rng = self.substream(0).generator()
        fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [self.seed & _MASK64, 0]},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}  # counter 0, buffer empty
        for t in range(count):
            fresh["state"]["key"][1] = self._child(t)
            rng.bit_generator.state = fresh
            yield rng
