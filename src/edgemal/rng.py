"""Deterministic pseudo-random primitives shared across the package.

Every generated artifact (weights, corpora, fault schedules) must be
bit-reproducible from an integer seed, independent of platform and of any
library PRNG. The generator is SplitMix64; floats take the top 53 bits,
normals come from Box-Muller.

Bulk draws (`uniforms`, `normals`) return exactly the float64 bits of the
same number of scalar calls and leave the stream in the same state. SplitMix64
is counter-based (draw i is mix(seed + i * gamma); Steele, Lea & Flood,
OOPSLA 2014), so a block of states and its mixing are one uint64 numpy
expression. A normal takes two steps: `normal_uniforms` draws the uniform
pairs (u1, u2) in bulk, and `box_muller` turns pairs into normals with
`math.log`/`math.cos` per element. Those two stay scalar because `np.log` is
not correctly rounded: it differs from `math.log` in the last bit on 0.34%
of the 1 248 000 u1 draws of the default corpus (seed 42), which would
change trace values that `traces.csv` writes in full. (`np.cos` matched
`math.cos` on all of them; nothing relies on that.) sqrt, * and + are
correctly rounded in both, so those run in numpy. A caller that only rounds
its normals to a small integer may compute them with `np.log`/`np.cos` and
redo through `box_muller` just the elements near a rounding boundary, as the
corpus generator's block jitter does (see `features`).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / (1 << 53)


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _M1 & _MASK64
    z = (z ^ (z >> 27)) * _M2 & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream. State advances by the 64-bit golden-ratio constant."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def _u64_block(self, n: int) -> np.ndarray:
        """The next n `next_u64` outputs as a uint64 array; uint64 arithmetic
        wraps modulo 2**64 exactly like the masked scalar path."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
        return z

    def _unit_block(self, n: int) -> np.ndarray:
        # top 53 bits convert to float64 exactly; scaling by 2**-53 is exact
        return (self._u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # top 53 bits -> [0, 1) at full double precision
        u = (self.next_u64() >> 11) * _INV_2_53
        return lo + u * (hi - lo)

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """n float64 draws, bit-identical to n calls of `uniform(lo, hi)`."""
        return lo + self._unit_block(n) * (hi - lo)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + std * z

    def normal_uniforms(self, n: int) -> np.ndarray:
        """The (n, 2) uniform pairs (u1, u2) of n calls of `normal()`, in draw
        order, with u1 = 0.0 replaced by 2**-53 as `normal` does."""
        u = self._unit_block(2 * n).reshape(n, 2)
        u1 = u[:, 0]
        u1[u1 <= 0.0] = 2.0 ** -53
        return u

    def normals(self, n: int) -> np.ndarray:
        """n standard normals, bit-identical to n calls of `normal()`: its
        `0.0 + 1.0 * z` is z, since z is never -0.0 (u1 < 1 and cos of a
        double is never exactly 0)."""
        u = self.normal_uniforms(n)
        return box_muller(u[:, 0], u[:, 1])

    def randint(self, n: int) -> int:
        """Integer in [0, n). Plain modulo reduction; the bias is irrelevant
        at the range sizes used here and keeps the stream portable."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def substream(self, tag: int) -> "SplitMix64":
        """Independent child stream for the given tag. Derive substreams from
        a freshly seeded generator so the mapping depends only on (seed, tag)."""
        return SplitMix64(_mix(self._state ^ _mix(tag * _GAMMA & _MASK64)))


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals of the uniform pairs of `SplitMix64.normal_uniforms`,
    shaped like u1, with the bits of `normal()`: log and cos are
    `math.log`/`math.cos` per element."""
    log_u1 = np.fromiter(map(math.log, u1.ravel().tolist()), np.float64, u1.size)
    cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).ravel().tolist()),
                         np.float64, u2.size)
    return (np.sqrt(-2.0 * log_u1) * cos_u2).reshape(u1.shape)
