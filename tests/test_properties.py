"""Properties that any correct solver of the separation margin must have.

Every converged solve sandwiches eps*: lower_bound <= eps* <= upper_bound
with upper_bound - lower_bound <= TARGET.  So two solves of instances
with the same eps* agree within TARGET on each bound, whatever algorithm
produced them, and the exact cases below pin eps* itself.  The two
bounds stay ordered up to rounding even for states at the validator's
trace, eigenvalue and Hermiticity limits, where no gap check may reject a
validated measurement either.  Hypothesis draws small instances (d = 2-4,
one to three states a side) from seeds, in the conftest's
random_instance convention.

The later properties cover the layers under the solver: certify's
batched eigvalsh screen against hermitian_eig and against eigvalsh of
each matrix alone, certify_forward against a trial-by-trial reference
loop, screened set loading and validate_density's own screen against
validating each state by its spectrum, the shifted Cholesky certificate
against eigvalsh, validate_povm_element's screen and screened
measurement loading against validating the measurement by its spectrum,
and the CLI's typed exit, naming the bad file
once, on every kind of malformed input file.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import statesep as ss
from statesep import cli, hermitian, saddle, stateio
from statesep._rng import SplitMix64
from statesep.errors import ParseError

from conftest import (
    assert_same_report,
    measurement_document,
    random_instance,
    reference_certify,
    set_document,
)

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
@given(seeds, st.sampled_from([saddle._SMOOTHING, 0.0, 0.95]))
def test_weak_duality_at_every_checkpoint(seed, smoothing):
    # Smoothed or not (0 queries Kelley's point itself), every query is a
    # mixture pair, so every checkpoint pairs two certified bounds.
    set0, set1 = small_instance(seed)
    with mock.patch.object(saddle, "_SMOOTHING", smoothing):
        res = solve(set0, set1)
    ss.as_mixture_weights(res.best_mu0, size=len(set0))
    ss.as_mixture_weights(res.best_mu1, size=len(set1))
    assert res.trace
    for point in res.trace:
        assert point.lower_bound <= point.upper_bound + 1e-9
    # Both reported bounds are the exact values of their certificates, as
    # the public evaluators give them.
    assert res.lower_bound == ss.min_separation_gap(res.measurement, set0, set1)
    rho = ss.mixture_state(res.best_mu0, set0)
    sigma = ss.mixture_state(res.best_mu1, set1)
    assert res.upper_bound == ss.max_pair_gap(rho, sigma)
    assert abs(ss.trace_distance(rho, sigma) - res.upper_bound) <= 1e-9


def kernel_distance(h):
    return float(np.maximum(hermitian.hermitian_eig(h).eigenvalues, 0.0).sum())


# Inside validation's limits: |Tr rho - 1| <= 1e-9, eigenvalues of a state
# >= -1e-9 and of a measurement in [-1e-9, 1 + 1e-9], asymmetry <= 1e-9.
LIMIT = 0.99e-9


@st.composite
def instances_at_the_limits(draw):
    """Two sets of one to three states at d = 2-4, and a measurement, all at
    the validators' limits.

    Each state is supported on one or more vectors of a basis, and each of
    its eigenvalues off the support is 0 or -LIMIT, any number of them at
    once; its trace is 1 or 1 +/- LIMIT.  The measurement's eigenvalues are
    -LIMIT, 0, 1/2, 1 or 1 + LIMIT.  Each operator is written in a basis,
    Haar-random, the identity or the Fourier basis (whose first vector is
    uniform), and then gets the anti-Hermitian part i s (J - I),
    |s| <= LIMIT / 2, which the Hermiticity gate admits and validation
    keeps.  Half the draws give each state a basis of its own, so rank-
    deficient states need not commute; the other half give the sets
    orthogonal supports: they share one basis and split its vectors, and
    the measurement may use it too.
    """
    dim = draw(st.integers(min_value=2, max_value=4))
    off_diagonal = np.ones((dim, dim)) - np.eye(dim)

    def basis():
        kind = draw(st.sampled_from(("haar", "identity", "fourier")))
        if kind == "haar":
            return haar_unitary(dim, draw(seeds))
        if kind == "identity":
            return np.eye(dim)
        k = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)

    def operator(p, u):
        m = (u * p) @ u.conj().T
        skew = draw(st.sampled_from((0.0, LIMIT / 2, -LIMIT / 2)))
        return (m + m.conj().T) / 2.0 + 1j * skew * off_diagonal

    def state(pool, u):
        support = pool[:draw(st.integers(min_value=1, max_value=len(pool)))]
        p = np.array([draw(st.sampled_from((0.0, -LIMIT))) for _ in range(dim)])
        low = p.sum() - p[support].sum()
        weights = np.array(draw(st.lists(st.integers(1, 100), min_size=len(support),
                                         max_size=len(support))), dtype=float)
        p[support] = weights / weights.sum()
        p[support[0]] += draw(st.sampled_from((-LIMIT, 0.0, LIMIT))) - low
        return ss.validate_density(operator(p, u if u is not None else basis()))

    split = draw(st.integers(min_value=1, max_value=dim - 1)) if draw(st.booleans()) else 0
    common = basis() if split else None
    pools = ([*range(split)], [*range(split, dim)]) if split else ([*range(dim)],) * 2
    sets = tuple(ss.StateSet(dim=dim, states=tuple(state(pool, common) for _ in range(
        draw(st.integers(min_value=1, max_value=3))))) for pool in pools)
    spectrum = np.array([draw(st.sampled_from((-LIMIT, 0.0, 0.5, 1.0, 1.0 + LIMIT)))
                         for _ in range(dim)])
    own = common is None or draw(st.booleans())
    t = ss.validate_povm_element(operator(spectrum, basis() if own else common))
    return (*sets, t)


@settings(max_examples=30)
@given(instances_at_the_limits())
def test_bounds_hold_at_the_validators_limits(instance):
    # Both sides bound the same max over 0 <= T <= I, so only rounding may
    # part them, not traces that differ by up to 2e-9.  No gap check may
    # reject operators that validation accepted.
    set0, set1, t = instance
    slack = set0.dim * hermitian.EIGENVALUE_TOL
    res = ss.solve_saddle(set0, set1, ss.SolverConfig(max_rounds=300, target_gap=1e-9))
    for point in res.trace:
        assert point.lower_bound <= point.upper_bound + slack
    report = ss.certify_forward(res.measurement, set0, set1, trials=50, seed=1)
    assert report.max_violation <= slack
    for rho in set0.states:
        for sigma in set1.states:
            ss.pair_gap(t, rho, sigma)
            ss.pair_gap(ss.helstrom_measurement(rho, sigma), rho, sigma)
    assert ss.separation_gap(t, set0, set1).min_gap == ss.min_separation_gap(t, set0, set1)
    assert ss.certify_forward(t, set0, set1, trials=50, seed=1).max_violation <= cli.CERT_TOL


@EXAMPLES
@given(seeds)
def test_upper_bound_is_the_least_kernel_distance_of_all_queries(seed):
    # LAPACK's eigh sees every query; the screen may skip hermitian_eig only
    # where it cannot lower the bound, so every reported upper bound is the
    # least hermitian_eig distance of the queries up to its round.  The
    # tight target runs on to queries that improve the bound by little.
    set0, set1 = small_instance(seed)
    queries = []
    original = saddle.eigh

    def recorded(h):
        queries.append(h.copy())
        return original(h)

    with mock.patch.object(saddle, "eigh", recorded):
        res = ss.solve_saddle(set0, set1, ss.SolverConfig(max_rounds=500, target_gap=1e-7))
    values = [kernel_distance(h) for h in queries]
    assert len(values) == res.rounds_used == len(res.trace)
    assert res.upper_bound == min(values)
    for point in res.trace:
        assert point.upper_bound == min(values[:point.round])
    assert res.upper_bound == ss.max_pair_gap(ss.mixture_state(res.best_mu0, set0),
                                              ss.mixture_state(res.best_mu1, set1))


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


@st.composite
def hermitian_stacks(draw):
    dim = draw(st.integers(min_value=1, max_value=16))
    count = draw(st.integers(min_value=1, max_value=4))
    parts = draw(hnp.arrays(np.float64, (2, count, dim, dim), elements=st.floats(-1.0, 1.0)))
    scales = draw(st.lists(st.sampled_from([1e-8, 1.0, 1e8]), min_size=count, max_size=count))
    m = (parts[0] + 1j * parts[1]) * np.array(scales)[:, None, None]
    return (m + m.conj().transpose(0, 2, 1)) / 2.0


@settings(max_examples=60)
@given(hermitian_stacks())
def test_batched_eigenvalues_agree_with_both_references(stack):
    # Within EIGENVALUE_TOL * max(1, ||H||_F): each kernel's share of the
    # screen slack.  certify screens with the batched eigvalsh, the solver
    # with one eigh per query, whose eigenvector path is another LAPACK
    # driver.
    lam = np.linalg.eigvalsh(stack)
    for h, row in zip(stack, lam):
        bound = hermitian.EIGENVALUE_TOL * max(1.0, np.linalg.norm(h))
        kernel = hermitian.hermitian_eig(h).eigenvalues
        assert np.abs(row - kernel).max() <= bound
        assert np.abs(row - np.linalg.eigvalsh(h)).max() <= bound
        assert np.abs(np.linalg.eigh(h)[0] - kernel).max() <= bound


@EXAMPLES
@given(seeds, st.integers(min_value=1, max_value=120), seeds)
def test_certify_matches_trial_by_trial_reference(seed, trials, certify_seed):
    set0, set1 = small_instance(seed)
    t = solve(set0, set1).measurement
    report = ss.certify_forward(t, set0, set1, trials=trials, seed=certify_seed)
    assert_same_report(report, reference_certify(t, set0, set1, trials, certify_seed))


@EXAMPLES
@given(seeds, st.integers(2, 4), st.integers(16, 96), st.integers(16, 96),
       st.integers(20, 60), st.sampled_from([None, 1, 7]), seeds)
def test_certify_matches_reference_on_many_states(seed, dim, l0, l1, trials, per_block,
                                                  certify_seed):
    # l >> d^2: the screen divides each side's summed matrix by a sum of
    # many exponentials, so its rounding lies furthest from that of the
    # reported weights.  Blocks of the default size, or of 1 or 7 trials.
    rng = SplitMix64(seed)
    states = [ss.random_density(dim, 1 + rng.next_uint64() % dim, rng.next_uint64())
              for _ in range(l0 + l1)]
    set0 = ss.StateSet(dim=dim, states=tuple(states[:l0]))
    set1 = ss.StateSet(dim=dim, states=tuple(states[l0:]))
    t = ss.PovmElement(np.diag(np.eye(dim)[0]).astype(complex))
    block = saddle._CERTIFY_BLOCK if per_block is None else per_block * max(l0 + l1, dim * dim)
    with mock.patch.object(saddle, "_CERTIFY_BLOCK", block):
        report = ss.certify_forward(t, set0, set1, trials=trials, seed=certify_seed)
    assert_same_report(report, reference_certify(t, set0, set1, trials, certify_seed))


# --- screened set loading: the per-state validate_density loop's result ---
# Sets of every size go through the screen; edge matrices sit within 1e-15
# of a validation threshold.

NEAR = st.floats(-1e-15, 1e-15)
EDGES = ("floor", "trace", "imaginary trace", "non-Hermitian", "NaN")


@st.composite
def edge_matrix(draw, dim, kind):
    if kind == "floor":
        rest = draw(hnp.arrays(np.float64, dim - 1, elements=st.floats(0.01, 1.0)))
        low = ss.states.EIG_FLOOR + draw(NEAR)
        lam = np.concatenate([[low], rest / rest.sum() * (1.0 - low)])
        u = haar_unitary(dim, draw(seeds) % 2**31) if draw(st.booleans()) else np.eye(dim)
        return u @ np.diag(lam) @ u.conj().T
    m = ss.random_density(dim, draw(st.integers(1, dim)), draw(seeds)).matrix.copy()
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "trace":
        return m * (1.0 + sign * ss.states.TRACE_TOL + draw(NEAR))
    if kind == "imaginary trace":
        m[0, 0] += 1j * (sign * ss.states.TRACE_IMAG_TOL + draw(NEAR))
        return m
    i, j = draw(st.permutations(range(dim)))[:2] if dim > 1 else (0, 0)
    if kind == "non-Hermitian":
        # Asymmetry within 1e-15 of HERMITICITY_TOL, or far beyond it; on
        # the diagonal, an imaginary part of half that.
        bump = draw(st.sampled_from([1e-9, 0.1])) + draw(NEAR)
        m[i, j] += bump if i != j else 0.5j * bump
    else:
        m[i, j] = np.nan
    return m


@st.composite
def matrix_lists(draw):
    """1-20 valid states, up to two of them replaced by edge matrices."""
    dim = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(1, 20))
    matrices = [ss.random_density(dim, draw(st.integers(1, dim)), draw(seeds)).matrix
                for _ in range(count)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(EDGES))
        matrices[draw(st.integers(0, count - 1))] = draw(edge_matrix(dim, kind))
    return matrices


def decomposed(m):
    """validate_density(m) with its screen off: every matrix gets a spectrum."""
    with mock.patch.object(ss.states, "screen_densities",
                           lambda ms: np.zeros(len(ms), dtype=bool)):
        return ss.validate_density(m)


def validated_one_by_one(matrices):
    """(stack, None) or (None, (index, error)) as a loop of validate_density gives.

    The loop decomposes every matrix, so the screen under test is compared
    against the spectrum and never against itself.
    """
    states = []
    for k, m in enumerate(matrices):
        try:
            states.append(decomposed(m))
        except ss.StatesepError as exc:
            return None, (k, exc)
    return np.stack([rho.matrix for rho in states]), None


def assert_same_outcome(load, stack, failure, wording):
    try:
        got = load()
    except ss.StatesepError as exc:
        assert failure is not None, f"rejected a valid set: {exc}"
        k, expected = failure
        assert type(exc) is type(expected)
        assert str(exc) == wording(k, expected)
    else:
        assert failure is None, f"accepted a set whose state {failure[0]} is invalid"
        assert got.stack().tobytes() == stack.tobytes()


@settings(max_examples=100)
@given(matrix_lists())
def test_screened_loading_matches_validating_each_state(matrices):
    stack, failure = validated_one_by_one(matrices)
    assert_same_outcome(lambda: ss.StateSet.from_matrices(matrices), stack, failure,
                        lambda k, exc: f"state {k}: {exc}")
    if any(np.isnan(m).any() for m in matrices):
        return  # a file cannot carry a NaN
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(stateio.dumps({"dim": matrices[0].shape[0], "states": [
                {"matrix": stateio.matrix_to_jsonable(m)} for m in matrices]}))
        assert_same_outcome(lambda: stateio.load_state_set(path), stack, failure,
                            lambda k, exc: f"{path}: state {k}: {exc}")


# --- validate_density: the screen it runs from d = 5 changes no outcome ---

@st.composite
def validation_cases(draw):
    """(kind, matrix), d = 1-8: a valid state of any rank, an edge matrix,
    or a Hermitian matrix with an entry above 2^500."""
    dim = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(("valid", "above 2^500") + EDGES))
    if kind in EDGES:
        return kind, draw(edge_matrix(dim, kind))
    m = ss.random_density(dim, draw(st.integers(1, dim)), draw(seeds)).matrix.copy()
    if kind == "above 2^500":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        m[i, j] = m[j, i] = draw(st.floats(min_value=np.nextafter(2.0 ** 500, np.inf),
                                           max_value=1e308))
    return kind, m


def outcome(validate, m):
    try:
        return validate(m).matrix.tobytes()
    except ss.StatesepError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(validation_cases())
def test_screen_changes_no_validation_outcome(case):
    kind, m = case
    if kind == "above 2^500":
        assert not ss.states.screen_densities(m[None]).any()
    assert outcome(ss.validate_density, m) == outcome(decomposed, m)


# --- the shifted Cholesky certificate: a pass is a proof ---

@st.composite
def near_floor_stacks(draw, max_dim=16):
    """(stack, floors): Hermitian matrices, d = 1-max_dim, lowest eigenvalue just off the floor.

    Each matrix has scale 1e-3 to 1e3 and its lowest eigenvalue 1e-16 to
    1e-12 above or below its own floor, and is rotated by a Haar unitary.
    The values come from a drawn numpy seed, which spreads them better
    than shrinking-friendly draws do.
    """
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    rng = np.random.default_rng(draw(seeds))
    mats, floors = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        floor = rng.choice([0.0, ss.states.EIG_FLOOR, -ss.states.POVM_CEILING,
                            rng.uniform(-1.0, 1.0) * scale])
        low = floor + rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-16.0, -12.0)
        u = haar_unitary(dim, int(rng.integers(2**31)))
        h = u @ np.diag(np.concatenate([[low], low + scale * rng.uniform(0.0, 1.0, dim - 1)]))
        h = h @ u.conj().T
        mats.append((h + h.conj().T) / 2.0)
        floors.append(floor)
    return np.array(mats), np.array(floors)


@settings(max_examples=300)
@given(near_floor_stacks())
def test_certificate_passes_no_matrix_below_its_floor(case):
    stack, floors = case
    for h, floor, ok in zip(stack, floors, ss.states._lowest_above(stack, floors)):
        if ok:
            bound = 1e-15 * max(1.0, np.linalg.norm(h))
            assert np.linalg.eigvalsh(h)[0] >= floor - bound


def exactly_positive_definite(h, floor):
    """Whether h - floor I is positive definite, by elimination in rationals.

    The real symmetric embedding [[Re h, -Im h], [Im h, Re h]] has h's
    spectrum, each eigenvalue twice, and every float is a rational.
    """
    d = h.shape[0]
    big = np.block([[h.real, -h.imag], [h.imag, h.real]])
    m = [[Fraction(x) for x in row] for row in big.tolist()]
    for i in range(2 * d):
        m[i][i] -= Fraction(floor)
    for k in range(2 * d):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, 2 * d):
            ratio = m[i][k] / m[k][k]
            for j in range(k + 1, 2 * d):
                m[i][j] -= ratio * m[k][j]
    return True


@settings(max_examples=200)
@given(near_floor_stacks(max_dim=6))
def test_certificate_passes_only_exactly_positive_definite_shifts(case):
    # No eigensolver's rounding to allow for: a pass must be a proof.
    stack, floors = case
    for h, floor, ok in zip(stack, floors, ss.states._lowest_above(stack, floors)):
        if ok:
            assert exactly_positive_definite(h, floor)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=16),
       st.sampled_from(["NaN", "infinity", "above 2^500", "non-Hermitian"]), st.data())
def test_certificate_passes_no_non_finite_huge_or_non_hermitian_matrix(dim, kind, data):
    rho = ss.random_density(dim, dim, data.draw(seeds)).matrix
    good = (rho + rho.conj().T) / 2.0
    bad = good.copy()
    i = data.draw(st.integers(0, dim - 1))
    j = data.draw(st.integers(0, dim - 1))
    if kind in ("NaN", "infinity"):
        value = np.nan if kind == "NaN" else data.draw(st.sampled_from([np.inf, -np.inf]))
        bad[i, j] = complex(value, bad[i, j].imag) if data.draw(st.booleans()) else \
            complex(bad[i, j].real, value)
    elif kind == "above 2^500":
        # Positive definite still, but an entry too large to factor safely.
        bad[i, i] = data.draw(st.floats(min_value=np.nextafter(2.0 ** 500, np.inf),
                                        max_value=1e308))
    else:
        tiny = data.draw(st.floats(min_value=5e-324, max_value=1e-3))
        bad[i, j] += tiny if i != j else 1j * tiny
    passed = ss.states._lowest_above(np.array([good, bad, good]), -0.5)
    assert passed.tolist() == [True, False, True]


@st.composite
def edge_measurements(draw):
    """A measurement well inside [0, I], or within 1e-15 of a threshold."""
    dim = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["inside", "floor", "ceiling", "non-Hermitian"]))
    lam = draw(hnp.arrays(np.float64, dim, elements=st.floats(0.01, 0.99)))
    if kind == "floor":
        lam[0] = ss.states.EIG_FLOOR + draw(NEAR)
    elif kind == "ceiling":
        lam[-1] = ss.states.POVM_CEILING + draw(NEAR)
    u = haar_unitary(dim, draw(seeds) % 2**31) if draw(st.booleans()) else np.eye(dim)
    m = u @ np.diag(lam) @ u.conj().T
    m = ((m + m.conj().T) / 2.0).astype(np.complex128)
    if kind == "non-Hermitian":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        step = draw(st.sampled_from([ss.states.HERMITICITY_TOL, 0.1])) + draw(NEAR)
        m[i, j] += step if i != j else 1j * step
    return kind, m


def decomposed_measurement(m):
    """validate_povm_element(m) with its screen off: the matrix gets a spectrum."""
    with mock.patch.object(ss.states, "screen_povm_element", lambda m: False):
        return ss.validate_povm_element(m)


@settings(max_examples=100)
@given(edge_measurements())
def test_screened_measurement_loading_matches_validating_it(case):
    kind, m = case
    if kind == "inside":
        assert ss.states.screen_povm_element(m)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(stateio.dumps({"dim": m.shape[0], "matrix": stateio.matrix_to_jsonable(m)}))
        try:
            expected = decomposed_measurement(m)
        except ss.StatesepError as exc:
            with pytest.raises(type(exc)) as direct:
                ss.validate_povm_element(m)
            assert str(direct.value) == str(exc)
            with pytest.raises(type(exc)) as info:
                stateio.load_measurement(path)
            assert str(info.value) == f"{path}: {exc}"
        else:
            assert ss.validate_povm_element(m).matrix.tobytes() == expected.matrix.tobytes()
            assert stateio.load_measurement(path).matrix.tobytes() == expected.matrix.tobytes()


# --- malformed files: every corruption is a typed error, exit code 1 ---
# validate and solve read only set files, so a corrupted measurement file
# goes through certify alone.

SET_CORRUPTIONS = ("truncated", "missing key", "wrong type", "non-finite", "wrong dim",
                   "non-square", "non-Hermitian", "non-PSD", "bad trace")
MEASUREMENT_CORRUPTIONS = SET_CORRUPTIONS[:-1] + ("above one",)
# Found by validate_density itself, which `validate` reports per state.
PHYSICS = ("non-Hermitian", "non-PSD", "bad trace")


@st.composite
def corrupted_files(draw, measurement, kind):
    """The text of a valid set or measurement file with one corruption."""
    dim = draw(st.integers(min_value=1, max_value=3))
    if measurement:
        doc = measurement_document(ss.PovmElement(np.eye(dim) / 2.0))
        state = None
        matrix = doc["matrix"]
    else:
        count = draw(st.integers(min_value=1, max_value=3))
        sset = ss.StateSet(dim=dim, states=tuple(
            ss.random_density(dim, dim, draw(seeds)) for _ in range(count)))
        doc = set_document(sset)
        state = draw(st.integers(min_value=0, max_value=count - 1))
        matrix = doc["states"][state]["matrix"]
    i = draw(st.integers(min_value=0, max_value=dim - 1))
    j = draw(st.integers(min_value=0, max_value=dim - 1))
    if kind == "truncated":
        text = stateio.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "missing key":
        owner = draw(st.sampled_from(["top", "entry"] + ([] if measurement else ["state"])))
        if owner == "top":
            del doc[draw(st.sampled_from(["dim", "matrix" if measurement else "states"]))]
        elif owner == "state":
            del doc["states"][state]["matrix"]
        else:
            del matrix[i][j][draw(st.sampled_from(["re", "im"]))]
    elif kind == "wrong type":
        bad = draw(st.sampled_from(["2", None, True, [1.0], {"re": 0.0}]))
        where = draw(st.sampled_from(["dim", "body", "row", "entry", "field"]))
        if where == "dim":
            doc["dim"] = bad
        elif where == "body":
            doc["matrix" if measurement else "states"] = bad
        elif where == "row":
            matrix[i] = bad
        elif where == "entry":
            matrix[i][j] = bad
        else:
            matrix[i][j][draw(st.sampled_from(["re", "im"]))] = bad
    elif kind == "non-finite":
        value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        matrix[i][j][draw(st.sampled_from(["re", "im"]))] = value
    elif kind == "wrong dim":
        doc["dim"] = draw(st.sampled_from([0, -1, dim + 1] + ([dim - 1] if dim > 1 else [])))
    elif kind == "non-square":
        if draw(st.booleans()):
            matrix[i].pop(j)
        else:
            matrix[i].append({"re": 0.0, "im": 0.0})
    elif kind == "non-Hermitian":
        matrix[i][i]["im"] = 0.25
    elif kind == "non-PSD":
        for a in range(dim):
            for b in range(dim):
                matrix[a][b] = {"re": 0.0, "im": 0.0}
        matrix[0][0]["re"] = -0.5
        if not measurement and dim > 1:
            matrix[1][1]["re"] = 1.5
    elif kind in ("bad trace", "above one"):
        for row in matrix:
            for entry in row:
                entry["re"] *= 3.0
                entry["im"] *= 3.0
    return json.dumps(doc)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "measurement,kind",
    [(False, kind) for kind in SET_CORRUPTIONS]
    + [(True, kind) for kind in MEASUREMENT_CORRUPTIONS],
)
@settings(max_examples=10)
@given(data=st.data(), as_set1=st.booleans())
def test_malformed_files_exit_1_with_a_typed_error(measurement, kind, data, as_set1):
    text = data.draw(corrupted_files(measurement, kind))
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        bad = os.path.join(tmp, "bad.json")
        witness = os.path.join(tmp, "witness.json")
        stateio.save_state_set(good, ss.StateSet(dim=2, states=(ss.random_density(2, 2, 1),)))
        stateio.save_measurement(witness, ss.PovmElement(np.eye(2) / 2.0))
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text)
        if measurement:
            runs = [["certify", good, good, bad]]
        else:
            pair = [good, bad] if as_set1 else [bad, good]
            runs = [["validate", *pair], ["solve", *pair], ["certify", *pair, witness],
                    ["helstrom", *pair]]
        for argv in runs:
            code, out, err = run_quietly(argv)
            assert code == 1, (kind, argv[0], out, err)
            assert "Traceback" not in out + err
            if argv[0] == "validate" and kind in PHYSICS:
                # validate reports each state's typed error on stdout.
                assert "Error: " in out and err == ""
            else:
                assert err.startswith("error: "), (kind, argv[0], err)
                assert err.count(bad) == 1, (kind, argv[0], err)


def per_entry_load(path, measurement):
    """load_measurement or load_state_set with one parse_matrix call per matrix.

    The loaders as they were before the array pass: each matrix parsed
    entry by entry, each state validated in turn.  The reference for the
    error, and its wording, that the loaders must raise.
    """
    doc = stateio._load_json(path)
    dim = stateio._parse_dim(doc, path)
    if measurement:
        matrix = stateio.parse_matrix(doc.get("matrix"), dim, f"{path}: matrix")
        try:
            return ss.validate_povm_element(matrix)
        except ss.StatesepError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise ParseError(f"{path}: 'states' must be a non-empty list")
    matrices = []
    for k, entry in enumerate(states):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: state {k} must be an object")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"{path}: state {k} label must be a string")
        matrices.append(stateio.parse_matrix(entry.get("matrix"), dim, f"{path}: state {k}"))
    for k, matrix in enumerate(matrices):
        try:
            ss.validate_density(matrix)
        except ss.StatesepError as exc:
            raise type(exc)(f"{path}: state {k}: {exc}") from exc


@pytest.mark.parametrize(
    "measurement,kind",
    [(False, kind) for kind in SET_CORRUPTIONS]
    + [(True, kind) for kind in MEASUREMENT_CORRUPTIONS],
)
@settings(max_examples=10)
@given(data=st.data())
def test_malformed_files_keep_their_exact_first_error(measurement, kind, data):
    text = data.draw(corrupted_files(measurement, kind))
    load = stateio.load_measurement if measurement else stateio.load_state_set
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ss.StatesepError) as expected:
            per_entry_load(path, measurement)
        with pytest.raises(ss.StatesepError) as info:
            load(path)
    assert type(info.value) is type(expected.value)
    assert str(info.value) == str(expected.value)


# --- the array pass parses every matrix as parse_matrix does, bit for bit ---

# Integers beyond 2^53 round, beyond 2^64 leave every fixed-width type, and
# -0.0 and 5e-324 keep bits a careless conversion loses.
EDGE_NUMBERS = (0, 1, 2**53 + 1, 2**63, 2**64 + 1, 10**308, -0.0, 5e-324, 1e16)
json_numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2**70, max_value=2**70),
)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_array_pass_agrees_with_parse_matrix_bit_for_bit(dim, count, data):
    entry = st.fixed_dictionaries({"re": json_numbers, "im": json_numbers})
    matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    text = json.dumps({"dim": dim, "states": [{"matrix": data.draw(matrix)}
                                              for _ in range(count)]})
    matrices = [state["matrix"] for state in json.loads(text)["states"]]
    stack = stateio._stack_matrices(matrices, dim)
    assert stack is not None
    for got, m in zip(stack, matrices):
        assert got.tobytes() == stateio.parse_matrix(m, dim, "m").tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _, _, loaded = stateio._read_states(path)
    assert loaded.tobytes() == stack.tobytes()


# --- the writers write the bytes the generic dumps writes ---

written_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e16, 1e17, 5e-324, 123456.789]),
    st.floats(allow_nan=False, allow_infinity=False),
)
labels = st.one_of(st.text(), st.text(alphabet=st.sampled_from('a"\\é€\n\U0001f600 %')))


def reference_float(x):
    # 17 significant digits, and ".0" where they read as an integer.
    s = format(float(x), ".17g")
    return s if any(ch in s for ch in ".eE") else s + ".0"


def recursive_dumps(obj, indent=0):
    """dumps of a list-and-dict document as one recursive call per value.

    Each float goes through reference_float.  A dict of scalars, and a list
    of scalars and such dicts, render on one line.
    """
    pad = " " * indent
    inner = " " * (indent + 2)

    def scalar(v):
        return not isinstance(v, (dict, list))

    def flat(v):
        return scalar(v) or isinstance(v, dict) and all(map(scalar, v.values()))

    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if all(map(scalar, obj.values())):
            return "{" + ", ".join(f"{json.dumps(k)}: {recursive_dumps(v)}"
                                   for k, v in obj.items()) + "}"
        lines = [f"{inner}{json.dumps(k)}: {recursive_dumps(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(map(flat, obj)):
            return "[" + ", ".join(recursive_dumps(v) for v in obj) + "]"
        lines = [f"{inner}{recursive_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_float(obj)
    return json.dumps(obj)


def listed(obj):
    """A document with its arrays written out: weights as lists of floats,
    matrices as rows of {re, im} objects."""
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj] if obj.ndim == 1 else stateio.matrix_to_jsonable(obj)
    return obj


def cli_payloads(dim):
    """`solve --json` and `certify --json` documents, as cli.run builds them:
    weights as float64 arrays, the measurement as {"dim", "matrix"} with a
    complex128 matrix."""
    numbers = hnp.arrays(np.float64, st.integers(0, 6), elements=written_numbers)
    paths = labels
    solve_inputs = st.fixed_dictionaries({
        "set0": paths, "set1": paths, "rounds": st.integers(1, 20000),
        "gap": written_numbers, "out": st.none() | paths})
    checkpoint = st.fixed_dictionaries({
        "round": st.integers(1, 20000), "lower_bound": written_numbers,
        "upper_bound": written_numbers, "gap": written_numbers})
    matrix = hnp.arrays(np.complex128, (dim, dim), elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False))
    solve_result = st.fixed_dictionaries({
        "lower_bound": written_numbers, "upper_bound": written_numbers,
        "gap": written_numbers, "converged": st.booleans(),
        "rounds_used": st.integers(1, 20000), "best_mu0": numbers, "best_mu1": numbers,
        "trace": st.lists(checkpoint, max_size=4),
        "measurement": st.fixed_dictionaries({"dim": st.just(dim), "matrix": matrix}),
    }, optional={"out": paths})
    certify_inputs = st.fixed_dictionaries({
        "set0": paths, "set1": paths, "measurement": paths,
        "trials": st.integers(1, 10**6), "seed": st.integers(0, 2**64 - 1)})
    certify_result = st.fixed_dictionaries({
        "margin": written_numbers, "max_violation": written_numbers,
        "min_distance": written_numbers, "trials": st.integers(1, 10**6),
        "worst_mu0": numbers, "worst_mu1": numbers, "certified": st.booleans()})
    return st.one_of(
        st.fixed_dictionaries({"command": st.just("solve"), "inputs": solve_inputs,
                               "result": solve_result}),
        st.fixed_dictionaries({"command": st.just("certify"), "inputs": certify_inputs,
                               "result": certify_result}),
    )


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_writers_write_the_bytes_dumps_writes(dim, count, data):
    # The writers and dumps write the bytes of the recursive reference, and
    # so do the CLI's --json documents, whose arrays dumps renders itself.
    payload = data.draw(cli_payloads(dim))
    assert stateio.dumps(payload) == recursive_dumps(listed(payload))
    assert stateio.dumps(listed(payload)) == recursive_dumps(listed(payload))
    parts = data.draw(hnp.arrays(np.float64, (count, dim, dim, 2), elements=written_numbers))
    stack = parts.view(np.complex128)[..., 0]
    names = data.draw(st.none() | st.lists(labels, min_size=count, max_size=count))
    sset = ss.StateSet(dim=dim, states=tuple(ss.DensityMatrix(m) for m in stack), labels=names)
    t = ss.PovmElement(stack[0])
    with tempfile.TemporaryDirectory() as tmp:
        set_path, t_path = os.path.join(tmp, "s.json"), os.path.join(tmp, "t.json")
        stateio.save_state_set(set_path, sset)
        stateio.save_measurement(t_path, t)
        with open(set_path, "rb") as fh:
            set_bytes = fh.read()
        with open(t_path, "rb") as fh:
            t_bytes = fh.read()
        _, loaded_labels, loaded = stateio._read_states(set_path)
    assert set_bytes == (recursive_dumps(set_document(sset)) + "\n").encode()
    assert t_bytes == (recursive_dumps(measurement_document(t)) + "\n").encode()
    # The set file is dumps of the states' arrays as they are.
    states = [{"matrix": m} if names is None else {"label": name, "matrix": m}
              for name, m in zip(names or [None] * count, sset.stack())]
    assert set_bytes == (stateio.dumps({"dim": dim, "states": states}) + "\n").encode()
    assert loaded_labels == (list(names) if names is not None else [None] * count)
    assert loaded.tobytes() == sset.stack().tobytes()
    back = stateio.parse_matrix(json.loads(t_bytes)["matrix"], dim, "T")
    assert back.tobytes() == t.matrix.tobytes()
