"""Portable deterministic random streams (SplitMix64, counter form).

The generator is the SplitMix64 finalizer applied to seed + i * GAMMA for
draw index i = 1, 2, ..., all in wrapping 64-bit arithmetic.  Being a pure
function of (seed, index) it is trivially reproducible across platforms and
languages, vectorizes cleanly, and lets parallel replicates derive
independent streams from their index without coordination.

Uniform doubles are (output >> 11) + 0.5 scaled by 2^-53, i.e. 53-bit
mantissa draws strictly inside (0, 1), so inverse-CDF transforms never see
the endpoints.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)

MASK64 = (1 << 64) - 1


def mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array."""
    z = values.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class Stream:
    """Sequential view over one counter-based stream.

    Each call hands out the next ``count`` outputs of the stream; separate
    Stream objects with the same seed replay identical values.
    """

    def __init__(self, seed: int) -> None:
        self.seed = np.uint64(seed & MASK64)
        self._index = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit outputs."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        idx = np.arange(self._index + 1, self._index + count + 1, dtype=np.uint64)
        self._index += count
        return mix64(self.seed + idx * _GAMMA)

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` doubles uniform on (0, 1)."""
        bits = self.raw(count) >> np.uint64(11)
        return (bits.astype(np.float64) + 0.5) / _TWO53

    def derive(self, salt: int) -> "Stream":
        """Substream seeded with mix64(seed ^ salt).

        The key is seed XOR salt, not the pair (seed, salt): two parents
        whose seeds differ by the XOR of two salts share a child, as
        ``Stream(13).derive(1)`` and ``Stream(7).derive(11)`` do.
        """
        salted = mix64(np.array([self.seed ^ np.uint64(salt & MASK64)], dtype=np.uint64))
        return Stream(int(salted[0]))


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Stream seed for one replicate: base + index, wrapping at 2^64."""
    return (int(base_seed) + int(replicate)) & MASK64
