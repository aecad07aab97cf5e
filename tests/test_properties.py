"""Properties that any correct solver of the separation margin must have.

Every converged solve sandwiches eps*: lower_bound <= eps* <= upper_bound
with upper_bound - lower_bound <= TARGET.  So two solves of instances
with the same eps* agree within TARGET on each bound, whatever algorithm
produced them, and the exact cases below pin eps* itself.  Hypothesis
draws small instances (d = 2-4, one to three states a side) from seeds,
in the conftest's random_instance convention.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import statesep as ss
from statesep import stateio

from conftest import random_instance

TARGET = 2e-3
CONFIG = ss.SolverConfig(max_rounds=20000, target_gap=TARGET)
EXAMPLES = settings(max_examples=8)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def solve(set0, set1):
    res = ss.solve_saddle(set0, set1, CONFIG)
    assert res.converged, f"gap {res.gap:.3e} after {res.rounds_used} rounds"
    return res


def small_instance(seed):
    return random_instance(seed, dims=(2, 3, 4), max_states=3)


def assert_same_margin(a, b):
    assert abs(a.lower_bound - b.lower_bound) <= TARGET
    assert abs(a.upper_bound - b.upper_bound) <= TARGET


def haar_unitary(dim, seed):
    rng = np.random.RandomState(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    diag = r.diagonal()
    return q * (diag / np.abs(diag))


def transformed(sset, fn):
    out = []
    for rho in sset.states:
        m = fn(rho.matrix)
        out.append(ss.validate_density((m + m.conj().T) / 2.0))
    return ss.StateSet(dim=out[0].dim, states=tuple(out))


@EXAMPLES
@given(seeds)
def test_weak_duality_at_every_checkpoint(seed):
    set0, set1 = small_instance(seed)
    res = solve(set0, set1)
    assert res.trace
    for point in res.trace:
        assert point.lower_bound <= point.upper_bound + 1e-9
    # Both reported bounds are the exact values of their certificates.
    assert res.lower_bound == ss.min_separation_gap(res.measurement, set0, set1)
    rho = ss.mixture_state(res.best_mu0, set0)
    sigma = ss.mixture_state(res.best_mu1, set1)
    assert abs(ss.trace_distance(rho, sigma) - res.upper_bound) <= 1e-9


@EXAMPLES
@given(seeds, seeds)
def test_common_unitary_keeps_bounds(seed, unitary_seed):
    set0, set1 = small_instance(seed)
    u = haar_unitary(set0.dim, unitary_seed)

    def rotate(sset):
        return transformed(sset, lambda m: u @ m @ u.conj().T)

    assert_same_margin(solve(set0, set1), solve(rotate(set0), rotate(set1)))


@EXAMPLES
@given(seeds, st.data())
def test_reordering_either_set_keeps_bounds(seed, data):
    set0, set1 = small_instance(seed)
    order0 = data.draw(st.permutations(range(len(set0))))
    order1 = data.draw(st.permutations(range(len(set1))))
    reordered0 = ss.StateSet(dim=set0.dim, states=tuple(set0.states[k] for k in order0))
    reordered1 = ss.StateSet(dim=set1.dim, states=tuple(set1.states[k] for k in order1))
    base = solve(set0, set1)
    assert_same_margin(base, solve(reordered0, set1))
    assert_same_margin(base, solve(set0, reordered1))


@EXAMPLES
@given(seeds)
def test_swapping_sets_keeps_margin_and_complement_is_witness(seed):
    set0, set1 = small_instance(seed)
    res = solve(set0, set1)
    assert_same_margin(res, solve(set1, set0))
    complement = ss.validate_povm_element(np.eye(set0.dim) - res.measurement.matrix)
    assert abs(ss.min_separation_gap(complement, set1, set0) - res.lower_bound) <= 1e-12


@EXAMPLES
@given(seeds, st.lists(st.integers(min_value=1, max_value=100), min_size=3, max_size=3))
def test_mixture_of_s0_inside_s1_gives_zero(seed, raw_weights):
    set0, set1 = small_instance(seed)
    weights = np.array(raw_weights[: len(set0)], dtype=float)
    inside = ss.mixture_state(weights / weights.sum(), set0)
    grown1 = ss.StateSet(dim=set1.dim, states=set1.states + (inside,))
    res = solve(set0, grown1)
    assert res.lower_bound <= 1e-9
    assert res.upper_bound <= TARGET + 1e-9


@EXAMPLES
@given(seeds, st.booleans(), st.data(), seeds)
def test_adding_a_state_never_raises_upper_bound(seed, to_set1, data, state_seed):
    # More states leave eps* where it was or lower it, and each converged
    # upper bound sits within TARGET above its eps*.
    set0, set1 = small_instance(seed)
    rank = data.draw(st.integers(min_value=1, max_value=set0.dim))
    extra = ss.random_density(set0.dim, rank, state_seed)
    if to_set1:
        grown = (set0, ss.StateSet(dim=set1.dim, states=set1.states + (extra,)))
    else:
        grown = (ss.StateSet(dim=set0.dim, states=set0.states + (extra,)), set1)
    assert solve(*grown).upper_bound <= solve(set0, set1).upper_bound + TARGET


@EXAMPLES
@given(seeds)
def test_state_files_round_trip_bit_for_bit(seed):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        for sset in small_instance(seed):
            stateio.save_state_set(first, sset)
            back = stateio.load_state_set(first)
            assert back.stack().tobytes() == sset.stack().tobytes()
            stateio.save_state_set(second, back)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()


sizes = st.integers(min_value=1, max_value=3)
halves = st.integers(min_value=1, max_value=2)


@EXAMPLES
@given(halves, halves, sizes, sizes, seeds)
def test_orthogonal_supports_give_one(dim0, dim1, l0, l1, seed):
    dim = dim0 + dim1
    draw = np.random.RandomState(seed % 2**31)

    def block_set(count, sub, offset):
        states = []
        for _ in range(count):
            block = ss.random_density(sub, 1 + draw.randint(sub), draw.randint(2**31))
            m = np.zeros((dim, dim), dtype=complex)
            m[offset:offset + sub, offset:offset + sub] = block.matrix
            states.append(ss.validate_density(m))
        return ss.StateSet(dim=dim, states=tuple(states))

    res = solve(block_set(l0, dim0, 0), block_set(l1, dim1, dim0))
    assert res.lower_bound >= 1.0 - TARGET
    assert abs(res.upper_bound - 1.0) <= 1e-9


@EXAMPLES
@given(st.integers(min_value=2, max_value=4), seeds, seeds)
def test_singletons_reach_helstrom_value(dim, seed0, seed1):
    draw = np.random.RandomState(seed0 % 2**31)
    rho = ss.random_density(dim, 1 + draw.randint(dim), seed0)
    sigma = ss.random_density(dim, 1 + draw.randint(dim), seed1)
    helstrom = ss.trace_distance(rho, sigma)
    res = solve(ss.StateSet(dim=dim, states=(rho,)), ss.StateSet(dim=dim, states=(sigma,)))
    assert helstrom - TARGET <= res.lower_bound <= helstrom + 1e-9
    assert helstrom - 1e-9 <= res.upper_bound <= helstrom + TARGET
