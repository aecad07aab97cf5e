"""Deterministic pseudo-random streams for seeded instance generation.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-ratio increment 0x9E3779B97F4A7C15, finalized with
two xor-shift/multiply mixing steps.  Normal variates come from the
Box-Muller transform, exponential variates from inversion.  Both consume
uniforms built from the top 53 bits k of one 64-bit output as
(k + 0.5) * 2**-53, so they lie in (0, 1].  The half-ulp offset is exact
below k = 2**52 and rounds to even above it; the top output, k = 2**53 - 1,
gives exactly 1.0 and an exponential of 0.

Simplex points (normalized exponentials) are drawn in blocks: the counter
is affine in the call count, so uniform_block computes a whole block of
outputs in one uint64 array operation, with the same bits and in the
same order as repeated next_uint64 calls, and simplex_points turns rows
of them into points.  Its logarithms are math.log mapped over the rows,
not np.log: numpy's vectorized log is not correctly rounded (numpy 2.4.6
on an AVX-512 machine differed from math.log on 14,013 of the 4,000,000
uniforms of seed 0, by 1 ulp each), and the stream must not depend on
the CPU.
Each point is divided by its left-to-right sum, the order in which a
plain Python loop adds (and sum() did, up to Python 3.11).
saddle.certify_forward screens its trials with np.log of the same
uniforms and LAPACK's eigvalsh, and calls simplex_points only on the
rows it reports from, so its reported bytes depend on neither.

The choice is frozen: identical seeds must reproduce identical byte
streams across releases, which rules out delegating to numpy's Generator
API (its distribution methods are allowed to change between versions).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer (wider seeds are masked)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in (0, 1]: (k + 0.5) * 2**-53, k the output's top 53 bits."""
        return ((self.next_uint64() >> 11) + 0.5) * 2.0 ** -53

    def normal_pair(self) -> tuple[float, float]:
        """One Box-Muller pair of independent standard normals."""
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        return r * math.cos(a), r * math.sin(a)

    def normals(self, count: int) -> list[float]:
        """`count` standard normals, drawn as Box-Muller pairs in order."""
        out: list[float] = []
        while len(out) < count:
            z0, z1 = self.normal_pair()
            out.append(z0)
            out.append(z1)
        return out[:count]

    def uniform_block(self, count: int) -> np.ndarray:
        """The next `count` uniforms as a float64 array, from one uint64 array operation.

        Entry i is the uniform the (i + 1)-th next_uint64 call would give,
        and the state advances by exactly `count` outputs.
        """
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def simplex_points(uniforms: np.ndarray) -> np.ndarray:
    """The stream's simplex points from rows of uniforms: exponentials -log(U), normalized.

    The logarithms are math.log's (see the module docstring), so a point
    has the same bits on every CPU.
    """
    # math.log, not np.log: see the module docstring.
    draws = -np.fromiter(map(math.log, uniforms.ravel().tolist()), np.float64, uniforms.size)
    return normalized(draws.reshape(uniforms.shape))


def normalized(rows: np.ndarray) -> np.ndarray:
    """Each row (the last axis) divided by its left-to-right sum."""
    # np.add.accumulate adds left to right; its last entry is the total.
    return rows / np.add.accumulate(rows, axis=-1)[..., -1:]
