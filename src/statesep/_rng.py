"""Deterministic pseudo-random streams for seeded instance generation.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-ratio increment 0x9E3779B97F4A7C15, finalized with
two xor-shift/multiply mixing steps.  Normal variates come from the
Box-Muller transform, exponential variates from inversion.  Both consume
uniforms built from the top 53 bits k of one 64-bit output as
(k + 0.5) * 2**-53, so they lie in (0, 1].  The half-ulp offset is exact
below k = 2**52 and rounds to even above it; the top output, k = 2**53 - 1,
gives exactly 1.0 and an exponential of 0.

Uniforms are drawn in blocks: the counter is affine in the call count,
so uniform_block computes a whole block of outputs in one uint64 array
operation, with the same bits and in the same order as repeated
next_uint64 calls.  normals takes its pairs from one block, and
simplex_points turns rows of a block into simplex points (normalized
exponentials).  The logarithms of both are math.log's, not np.log's:
numpy's vectorized log is not correctly rounded (numpy 2.4.6 on an
AVX-512 machine differed from math.log on 14,013 of the 4,000,000
uniforms of seed 0, by 1 ulp each), and the stream must not depend on
the CPU.  Each point is divided by its left-to-right sum, the order in
which a plain Python loop adds (and sum() did, up to Python 3.11).
saddle.certify_forward screens its trials with np.log of the same
uniforms, numpy's sums, BLAS's matmul and LAPACK's eigvalsh, and calls
simplex_points only on the rows it reports from, so its reported bytes
depend on none of them.

The choice is frozen: identical seeds must reproduce identical byte
streams across releases, which rules out delegating to numpy's Generator
API (its distribution methods are allowed to change between versions).
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same constants, and the shifts, as numpy scalars for uniform_block.
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer (wider seeds are masked).

    The state is kept as a Python int: a numpy integer seed or count is
    taken through operator.index, since numpy arithmetic with the 64-bit
    constants would overflow.
    """

    def __init__(self, seed: int):
        self._state = operator.index(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def normals(self, count: int) -> list[float]:
        """`count` standard normals, drawn as Box-Muller pairs in order.

        Each pair takes the next two uniforms u1, u2 from uniform_block and
        gives sqrt(-2 log u1) times the cosine, then the sine, of 2 pi u2,
        each with math's functions, not numpy's (see the module docstring).
        An odd count drops the last sine, but its uniforms are drawn.
        """
        pairs = max(0, (operator.index(count) + 1) // 2)
        uniforms = self.uniform_block(2 * pairs).tolist()
        out: list[float] = []
        for u1, u2 in zip(uniforms[0::2], uniforms[1::2]):
            r = math.sqrt(-2.0 * math.log(u1))
            a = 2.0 * math.pi * u2
            out.append(r * math.cos(a))
            out.append(r * math.sin(a))
        return out[:count]

    def uniform_block(self, count: int) -> np.ndarray:
        """The next `count` uniforms as a float64 array, from one uint64 array operation.

        Entry i is the uniform the (i + 1)-th next_uint64 call would give,
        and the state advances by exactly `count` outputs.
        """
        count = operator.index(count)
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _U_GOLDEN
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z ^= z >> _U30
        z *= _U_MIX1
        z ^= z >> _U27
        z *= _U_MIX2
        z ^= z >> _U31
        z >>= _U11
        u = z.astype(np.float64)
        u += 0.5
        u *= 2.0 ** -53
        return u


def simplex_points(uniforms: np.ndarray) -> np.ndarray:
    """The stream's simplex points from rows of uniforms: exponentials -log(U), normalized.

    The logarithms are math.log's (see the module docstring), so a point
    has the same bits on every CPU.
    """
    # math.log, not np.log: see the module docstring.
    draws = -np.fromiter(map(math.log, uniforms.ravel().tolist()), np.float64, uniforms.size)
    draws = draws.reshape(uniforms.shape)
    # np.add.accumulate adds left to right; its last entry is the total.
    return draws / np.add.accumulate(draws, axis=-1)[..., -1:]
