"""The array simplex draw reproduces the documented scalar stream, and numpy's
log, which certify screens with, stays within the screen's error bound."""

import math

import numpy as np
import pytest

from statesep._rng import SplitMix64
from statesep.saddle import _SCREEN_LOG_ETA


def reference_simplex(rng: SplitMix64, size: int) -> list[float]:
    """One simplex point from next_uint64, math.log and a left-to-right sum."""
    draws = [-math.log(((rng.next_uint64() >> 11) + 0.5) * 2.0 ** -53) for _ in range(size)]
    total = 0.0
    for e in draws:
        total += e
    return [e / total for e in draws]


@pytest.mark.parametrize("size0,size1", [(1, 1), (4, 3), (256, 256)])
@pytest.mark.parametrize("offset", [0, 1, 7])
def test_simplex_pairs_match_scalar_stream(size0, size1, offset):
    seed = 40_000 + 13 * offset
    ref, fast = SplitMix64(seed), SplitMix64(seed)
    for _ in range(offset):
        ref.next_uint64()
        fast.next_uint64()
    # Two calls, so the second block starts where the first one stopped.
    blocks = [fast.simplex_pairs(3, size0, size1), fast.simplex_pairs(2, size0, size1)]
    want0, want1 = [], []
    for _ in range(5):
        want0.append(reference_simplex(ref, size0))
        want1.append(reference_simplex(ref, size1))
    got0 = np.concatenate([b[0] for b in blocks])
    got1 = np.concatenate([b[1] for b in blocks])
    assert got0.shape == (5, size0) and got1.shape == (5, size1)
    assert got0.tobytes() == np.array(want0).tobytes()
    assert got1.tobytes() == np.array(want1).tobytes()
    assert fast._state == ref._state
    assert fast.next_uint64() == ref.next_uint64()


def test_state_wraps_modulo_two_to_the_64():
    ref, fast = SplitMix64(2 ** 64 - 1), SplitMix64(2 ** 64 - 1)
    fast.simplex_pairs(2, 3, 1)
    for _ in range(2 * (3 + 1)):
        ref.next_uint64()
    assert fast._state == ref._state


def test_numpy_log_within_the_screen_error_of_math_log():
    # certify's screen takes -np.log(U) for the stream's -math.log(U); its
    # slack allows each a relative error of _SCREEN_LOG_ETA.  The extreme
    # uniforms are k = 0, 2^-54, and k = 2^53 - 1, whose half-ulp offset
    # rounds away to give exactly 1.0; the top k give -log(U) near 0.
    top = 2 ** 53
    ks = np.array([0, 1, 2, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, top - 3, top - 2, top - 1],
                  dtype=np.uint64)
    extremes = (ks.astype(np.float64) + 0.5) * 2.0 ** -53
    assert extremes[0] == 2.0 ** -54 and extremes[-1] == 1.0
    uniforms = np.concatenate([extremes, SplitMix64(2024).uniform_block(1 << 20)])
    exact = np.array([math.log(u) for u in uniforms.tolist()])
    assert np.all(np.abs(np.log(uniforms) - exact) <= _SCREEN_LOG_ETA * np.abs(exact))
