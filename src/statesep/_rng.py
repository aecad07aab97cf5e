"""Deterministic pseudo-random streams for seeded instance generation.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-ratio increment 0x9E3779B97F4A7C15, finalized with
two xor-shift/multiply mixing steps.  Normal variates come from the
Box-Muller transform, exponential variates from inversion.  Both consume
uniforms built from the top 53 bits of one 64-bit output, offset by half
an ulp so they lie strictly inside (0, 1).

Simplex points (normalized exponentials) are drawn in blocks: the counter
is affine in the call count, so simplex_pairs computes a whole block of
outputs in one uint64 array operation, with the same bits and in the
same order as repeated next_uint64 calls.  The logarithms are math.log
mapped over the block, not np.log: numpy's vectorized log is not
correctly rounded (numpy 2.4.6 on an AVX-512 machine differed from
math.log on 13,925 of 4,000,000 uniforms), and the stream must not
depend on the CPU.  Each point is divided by its left-to-right sum, the
order in which a plain Python loop adds (and sum() did, up to Python
3.11).

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
        """Uniform double in the open interval (0, 1): (k + 0.5) * 2**-53."""
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

    def simplex_pairs(self, count: int, size0: int, size1: int):
        """`count` pairs of uniform points on the simplices of `size0` and `size1`.

        Returns two float64 arrays, (count, size0) and (count, size1).  Row
        k of each is the k-th pair's point: normalized standard exponentials
        -log(U), the first row's `size0` draws first, then its `size1`
        draws, then the next pair's.  All count * (size0 + size1) outputs
        come from one uint64 array operation, and the state advances by
        exactly that many outputs, as that many next_uint64 calls would.
        """
        width = size0 + size1
        total = count * width
        steps = np.arange(1, total + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self._state = (self._state + total * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        uniforms = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        # math.log, not np.log: see the module docstring.
        draws = -np.fromiter(map(math.log, uniforms.tolist()), np.float64, total)
        draws = draws.reshape(count, width)
        return _normalized(draws[:, :size0]), _normalized(draws[:, size0:])


def _normalized(rows: np.ndarray) -> np.ndarray:
    # np.add.accumulate adds left to right; its last column is the total.
    return rows / np.add.accumulate(rows, axis=1)[:, -1:]
