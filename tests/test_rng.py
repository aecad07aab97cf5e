"""The array simplex draw reproduces the documented scalar stream, and numpy's
log, which certify screens with, stays within the screen's error bound."""

import math

import numpy as np
import pytest

from statesep._rng import SplitMix64, simplex_points
from statesep.saddle import _SCREEN_LOG_ETA


def reference_simplex(rng: SplitMix64, size: int) -> list[float]:
    """One simplex point from next_uint64, math.log and a left-to-right sum."""
    draws = [-math.log(((rng.next_uint64() >> 11) + 0.5) * 2.0 ** -53) for _ in range(size)]
    total = 0.0
    for e in draws:
        total += e
    return [e / total for e in draws]


def stream_pairs(rng: SplitMix64, count: int, size0: int, size1: int):
    """`count` pairs of simplex points, drawn as certify_forward draws a block of trials.

    One uniform_block call gives every uniform, row k holding pair k's
    size0 then size1 draws, and simplex_points turns each half-row into a
    point.  The whole-block form, one simplex_points call per half, must
    give the same rows.
    """
    uniforms = rng.uniform_block(count * (size0 + size1)).reshape(count, size0 + size1)
    pairs = [(simplex_points(row[:size0]), simplex_points(row[size0:])) for row in uniforms]
    rows0, rows1 = simplex_points(uniforms[:, :size0]), simplex_points(uniforms[:, size0:])
    assert rows0.tobytes() == np.array([mu0 for mu0, _ in pairs]).tobytes()
    assert rows1.tobytes() == np.array([mu1 for _, mu1 in pairs]).tobytes()
    return pairs


@pytest.mark.parametrize("size0,size1", [(1, 1), (4, 3), (256, 256)])
@pytest.mark.parametrize("offset", [0, 1, 7])
def test_simplex_pairs_match_scalar_stream(size0, size1, offset):
    seed = 40_000 + 13 * offset
    ref, fast = SplitMix64(seed), SplitMix64(seed)
    for _ in range(offset):
        ref.next_uint64()
        fast.next_uint64()
    # Two blocks, so the second starts where the first one stopped.
    got = stream_pairs(fast, 3, size0, size1) + stream_pairs(fast, 2, size0, size1)
    for mu0, mu1 in got:
        assert mu0.tobytes() == np.array(reference_simplex(ref, size0)).tobytes()
        assert mu1.tobytes() == np.array(reference_simplex(ref, size1)).tobytes()
    assert fast._state == ref._state
    assert fast.next_uint64() == ref.next_uint64()


def test_state_wraps_modulo_two_to_the_64():
    ref, fast = SplitMix64(2 ** 64 - 1), SplitMix64(2 ** 64 - 1)
    got = stream_pairs(fast, 2, 3, 1)
    for mu0, mu1 in got:
        assert mu0.tobytes() == np.array(reference_simplex(ref, 3)).tobytes()
        assert mu1.tobytes() == np.array(reference_simplex(ref, 1)).tobytes()
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
