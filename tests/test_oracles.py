import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import statesep as ss
from statesep.errors import (
    BadGridStepError,
    SetTooLargeError,
    WrongDimensionError,
)
from statesep.oracles import _compositions

from conftest import (
    DIST_KET0_PLUS,
    KET0,
    KET1,
    MIXED2,
    PLUS,
    qubit_bloch,
    random_instance,
    commuting_eps,
    state_set,
    wolfe_nearest_point,
)


class TestBruteForceQubitOracle:
    def test_orthogonal_singletons(self):
        value = ss.brute_force_epsilon_d2(state_set(KET0), state_set(KET1), 0.02)
        assert value >= 0.98
        assert value <= 1.0 + 1e-9

    def test_degenerate_instance(self, degenerate_instance):
        set0, set1 = degenerate_instance
        value = ss.brute_force_epsilon_d2(set0, set1, 0.05)
        assert abs(value) <= 1e-9  # I/2 on the grid attains exactly zero

    def test_diagonal_singletons(self):
        set0 = state_set(np.diag([0.75, 0.25]))
        set1 = state_set(np.diag([0.25, 0.75]))
        value = ss.brute_force_epsilon_d2(set0, set1, 0.02)
        assert value == pytest.approx(0.5, abs=0.04)

    def test_ket0_vs_plus(self):
        value = ss.brute_force_epsilon_d2(state_set(KET0), state_set(PLUS), 0.02)
        assert value == pytest.approx(DIST_KET0_PLUS, abs=0.05)
        assert value <= DIST_KET0_PLUS + 1e-9  # grid never beats the optimum

    def test_wrong_dimension(self):
        set3 = ss.StateSet(dim=3, states=(ss.random_density(3, 3, 1),))
        with pytest.raises(WrongDimensionError):
            ss.brute_force_epsilon_d2(set3, set3, 0.05)

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.11, 0.5])
    def test_bad_grid_step(self, step):
        sets = state_set(KET0), state_set(KET1)
        with pytest.raises(BadGridStepError):
            ss.brute_force_epsilon_d2(sets[0], sets[1], step)


class TestMixtureGridOracle:
    def test_singletons_exact(self, qubits):
        value = ss.mixture_grid_oracle(state_set(KET0), state_set(PLUS), 0.25)
        assert value == pytest.approx(DIST_KET0_PLUS, abs=1e-12)

    def test_degenerate_on_grid(self, degenerate_instance):
        set0, set1 = degenerate_instance
        assert ss.mixture_grid_oracle(set0, set1, 0.05) <= 1e-12

    def test_upper_bounds_solver(self):
        cfg = ss.SolverConfig(max_rounds=20000, target_gap=1e-4)
        for seed in (50, 51, 52):
            set0, set1 = random_instance(seed, dims=(2,), max_states=3)
            res = ss.solve_saddle(set0, set1, cfg)
            value = ss.mixture_grid_oracle(set0, set1, 0.05)
            assert value >= res.upper_bound - 0.05 * (len(set0) + len(set1))

    def test_generic_dimension_path(self):
        # d = 3 exercises the eigvalsh fallback rather than Bloch algebra
        set0 = state_set(np.diag([1.0, 0.0, 0.0]))
        set1 = state_set(np.diag([0.0, 0.0, 1.0]))
        assert ss.mixture_grid_oracle(set0, set1, 0.25) == pytest.approx(1.0, abs=1e-12)
        pair0 = state_set(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
        value = ss.mixture_grid_oracle(pair0, set1, 0.25)
        assert value == pytest.approx(1.0, abs=1e-12)  # disjoint supports

    def test_set_too_large(self):
        states = tuple(ss.random_density(2, 2, s) for s in range(5))
        big = ss.StateSet(dim=2, states=states)
        with pytest.raises(SetTooLargeError):
            ss.mixture_grid_oracle(big, state_set(KET0), 0.25)

    @pytest.mark.parametrize("step", [0.0, -0.25, 0.3])
    def test_bad_grid_step(self, step):
        with pytest.raises(BadGridStepError):
            ss.mixture_grid_oracle(state_set(KET0), state_set(KET1), step)


class TestCompositions:
    def test_counts(self):
        assert _compositions(4, 1).shape == (1, 1)
        assert _compositions(4, 2).shape == (5, 2)
        assert _compositions(4, 3).shape == (15, 3)  # C(6, 2)

    def test_rows_sum_and_cover(self):
        rows = _compositions(5, 3)
        assert (rows.sum(axis=1) == 5).all()
        assert (rows >= 0).all()
        assert len({tuple(r) for r in rows}) == len(rows)


class TestOracleSandwich:
    def test_solver_value_between_oracles(self):
        cfg = ss.SolverConfig(max_rounds=20000, target_gap=1e-4)
        for seed in (70, 71):
            set0, set1 = random_instance(seed, dims=(2,), max_states=3)
            res = ss.solve_saddle(set0, set1, cfg)
            assert res.converged
            low = ss.brute_force_epsilon_d2(set0, set1, 0.04)
            high = ss.mixture_grid_oracle(set0, set1, 0.1)
            # low never exceeds eps*, high never undershoots it
            assert low <= res.upper_bound + 1e-9
            assert high >= res.lower_bound - 1e-9


# The exact reference: for unit-trace qubit states, a mixture difference
# has eigenvalues +/- half the length of its Bloch vector, so eps* is half
# the distance between the two sets' Bloch hulls, the nearest point to the
# origin of the hull of the differences b_i - c_j.  Wolfe's algorithm finds
# it with neither eigensolver.
QUBIT_GAP = 1e-9
QUBIT_CONFIG = ss.SolverConfig(max_rounds=20000, target_gap=QUBIT_GAP)
# Rounding in the solver's bounds and in the reference's bracket.
QUBIT_SLACK = 1e-12


@st.composite
def qubit_sets(draw):
    """Two sets of one to eight qubit states each, of trace exactly 1.

    z is dyadic, so (1 + z)/2 and (1 - z)/2 are exact and sum to 1; the
    radius in the x-y plane puts a share of the states on the sphere.
    Unless `split` is None, S0 keeps z >= split / 2^20 and S1 z <=
    -split / 2^20, so that the hulls are apart more often than not.
    """
    split = draw(st.sampled_from([None, 0, 2**18, 2**19]))

    def state(sign):
        if split is None:
            z = draw(st.integers(-2**20, 2**20)) / 2**20
        else:
            z = sign * draw(st.integers(split, 2**20)) / 2**20
        r = math.sqrt(1.0 - z * z) * draw(st.integers(0, 4)) / 4
        angle = 2.0 * math.pi * draw(st.integers(0, 2**16)) / 2**16
        off = complex(r * math.cos(angle), -r * math.sin(angle)) / 2.0
        return np.array([[(1.0 + z) / 2.0, off], [off.conjugate(), (1.0 - z) / 2.0]])

    sizes = st.integers(min_value=1, max_value=8)
    return tuple(ss.StateSet.from_matrices([state(sign) for _ in range(draw(sizes))])
                 for sign in (1, -1))


def assert_within_wolfe(set0, set1, lower, upper):
    """|bound - eps*| <= QUBIT_GAP on both sides, for every eps* in Wolfe's bracket."""
    b0, b1 = qubit_bloch(set0), qubit_bloch(set1)
    lo, hi = wolfe_nearest_point((b0[:, None, :] - b1[None, :, :]).reshape(-1, 3))
    lo, hi = lo / 2.0, hi / 2.0
    assert hi - lo <= QUBIT_SLACK
    assert lower <= hi + QUBIT_SLACK and upper >= lo - QUBIT_SLACK
    for bound in (lower, upper):
        assert bound - lo <= QUBIT_GAP + QUBIT_SLACK
        assert hi - bound <= QUBIT_GAP + QUBIT_SLACK


class TestWolfeQubitReference:
    @settings(max_examples=60)
    @given(qubit_sets())
    def test_bounds_meet_the_bloch_hull_distance(self, instance):
        set0, set1 = instance
        res = ss.solve_saddle(set0, set1, QUBIT_CONFIG)
        assert res.converged
        assert_within_wolfe(set0, set1, res.lower_bound, res.upper_bound)

    def test_a_lowered_upper_bound_fails(self):
        @settings(max_examples=25, phases=[Phase.generate])
        @given(qubit_sets())
        def lowered(instance):
            set0, set1 = instance
            res = ss.solve_saddle(set0, set1, QUBIT_CONFIG)
            assert_within_wolfe(set0, set1, res.lower_bound, res.upper_bound * (1.0 - 1e-8))

        with pytest.raises(AssertionError):
            lowered()

    def test_reference_on_known_hulls(self):
        # One point at distance 2; a segment through the origin; the six
        # axis points around it; a square face at distance 1.
        assert wolfe_nearest_point(np.array([[2.0, 0.0, 0.0]])) == (2.0, 2.0)
        assert wolfe_nearest_point(np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])) == (0.0, 0.0)
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        assert wolfe_nearest_point(axes) == (0.0, 0.0)
        lo, hi = wolfe_nearest_point(np.array([[1.0, 1, 1], [1, -1, 1], [1, 1, -1], [1, -1, -1]]))
        assert lo == pytest.approx(1.0, abs=1e-15) and hi == pytest.approx(1.0, abs=1e-15)


# The exact reference at any d: states diagonal in one basis give eps* as
# the value of a linear program, which conftest.commuting_eps solves on
# Fractions.  Spectra are dyadic, so each state's floats are its exact
# spectrum and sum to 1 exactly.
COMMUTING_GAP = 1e-9
COMMUTING_CONFIG = ss.SolverConfig(max_rounds=20000, target_gap=COMMUTING_GAP)


@st.composite
def commuting_spectra(draw):
    """Spectra of one to eight states a side at d = 2-8, as rows of Fractions.

    Each set draws a support, a nonempty subset of the basis, and each of
    its states spreads 32 units of 1/32 over it, some parts empty, so the
    sets' supports range from disjoint (eps* = 1) to shared.  One draw in
    four makes S1's last state a dyadic mixture of S0's, which puts eps* at
    0 exactly.
    """
    dim = draw(st.integers(min_value=2, max_value=8))
    subsets = st.lists(st.integers(0, dim - 1), min_size=1, unique=True)

    def composition(total, parts):
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=parts - 1,
                                    max_size=parts - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    def spectra():
        support = draw(subsets)
        out = []
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            row = [Fraction(0)] * dim
            for k, units in zip(support, composition(32, len(support))):
                row[k] = Fraction(units, 32)
            out.append(row)
        return out

    p, q = spectra(), spectra()
    if draw(st.integers(0, 3)) == 0:
        weights = [Fraction(k, 16) for k in composition(16, len(p))]
        q[-1] = [sum(w * row[k] for w, row in zip(weights, p)) for k in range(dim)]
    return p, q


def commuting_sets(p, q, u):
    """The two state sets, each spectrum rotated to u diag(p) u^dag."""
    return tuple(ss.StateSet.from_matrices([(u * [float(x) for x in row]) @ u.conj().T
                                            for row in rows]) for rows in (p, q))


def assert_within_lp(lower, upper, eps, slack):
    """|bound - eps*| <= COMMUTING_GAP + slack on both sides."""
    for bound in (lower, upper):
        assert abs(Fraction(bound) - eps) <= Fraction(COMMUTING_GAP + slack)


class TestCommutingReference:
    @settings(max_examples=40)
    @given(commuting_spectra())
    def test_bounds_meet_the_lp_value_on_diagonal_sets(self, spectra):
        p, q = spectra
        eps = commuting_eps(p, q)
        res = ss.solve_saddle(*commuting_sets(p, q, np.eye(len(p[0]))), COMMUTING_CONFIG)
        assert res.converged
        assert_within_lp(res.lower_bound, res.upper_bound, eps, 0.0)

    @settings(max_examples=40)
    @given(commuting_spectra(), st.integers(0, 2**31 - 1))
    def test_bounds_meet_the_lp_value_under_a_common_unitary(self, spectra, seed):
        # Rotated, the states are no longer diagonal in floats: d
        # EIGENVALUE_TOL more for rounding.
        p, q = spectra
        dim = len(p[0])
        rng = np.random.RandomState(seed)
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        res = ss.solve_saddle(*commuting_sets(p, q, u), COMMUTING_CONFIG)
        assert res.converged
        slack = dim * ss.hermitian.EIGENVALUE_TOL
        assert_within_lp(res.lower_bound, res.upper_bound, commuting_eps(p, q), slack)

    def test_a_raised_lower_bound_fails(self):
        @settings(max_examples=20, phases=[Phase.generate])
        @given(commuting_spectra())
        def raised(spectra):
            p, q = spectra
            res = ss.solve_saddle(*commuting_sets(p, q, np.eye(len(p[0]))), COMMUTING_CONFIG)
            assert_within_lp(res.lower_bound + 2 * COMMUTING_GAP, res.upper_bound,
                             commuting_eps(p, q), 0.0)

        with pytest.raises(AssertionError):
            raised()

    def test_reference_on_known_sets(self):
        half = Fraction(1, 2)
        assert commuting_eps([[1, 0]], [[0, 1]]) == 1
        assert commuting_eps([[1, 0], [0, 1]], [[half, half]]) == 0
        assert commuting_eps([[Fraction(3, 4), Fraction(1, 4)]],
                             [[Fraction(1, 4), Fraction(3, 4)]]) == half
        # Orthogonal supports, two states a side, at d = 4.
        assert commuting_eps([[1, 0, 0, 0], [0, half, half, 0]],
                             [[0, 0, 0, 1], [0, 0, 0, 1]]) == 1
        # At t = (1, 1, 0) each pair gap is 1/2; no t does better.
        assert commuting_eps([[half, half, 0]], [[0, half, half], [half, 0, half]]) == half
