import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import statesep as ss
from statesep.errors import (
    BadConfigError,
    BadMatrixError,
    BadRankError,
    BadTraceError,
    BadWeightsError,
    DimensionMismatchError,
    EmptySetError,
    LengthMismatchError,
    NotHermitianError,
    NotPositiveError,
    SpectrumOutOfRangeError,
)

from conftest import KET0, KET1, MIXED2, density, huge_state, state_set


class TestValidateDensity:
    def test_valid(self):
        rho = ss.validate_density(np.diag([0.5, 0.5]))
        assert rho.dim == 2
        assert not rho.matrix.flags.writeable

    def test_not_positive(self):
        with pytest.raises(NotPositiveError) as err:
            ss.validate_density(np.diag([1.5, -0.5]))
        assert "-" in str(err.value)  # offending eigenvalue reported

    def test_bad_trace(self):
        with pytest.raises(BadTraceError) as err:
            ss.validate_density(np.diag([0.6, 0.6]))
        assert "1.2" in str(err.value)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            ss.validate_density(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_imaginary_trace_rejected(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 0] += 1e-10j
        m[1, 1] -= 0.4e-10j  # keeps Hermiticity violation small on diagonal
        with pytest.raises((BadTraceError, NotHermitianError)):
            ss.validate_density(m)


    def test_huge_off_diagonal_is_not_positive(self):
        # Eigenvalues 0.5 +/- 1e160: squaring 1e160 for a norm would overflow.
        with pytest.raises(NotPositiveError, match="-1.000e[+]160"):
            ss.validate_density(np.array([[0.5, 1e160], [1e160, 0.5]]))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 9, 16])
    def test_full_rank_state_spends_no_spectrum(self, dim, kernel_calls):
        m = ss.random_density(dim, dim, 21).matrix
        kernel_calls.clear()
        assert ss.validate_density(m).matrix.tobytes() == m.tobytes()
        assert len(kernel_calls) == 0

    def test_qubit_state_spends_one_spectrum(self, kernel_calls):
        # A qubit state is decomposed, not screened: the benchmark's tracer
        # test counts this one spectrum.
        ss.validate_density(ss.random_density(2, 2, 21).matrix)
        assert len(kernel_calls) == 1

    def test_state_the_screen_refuses_is_decomposed(self, kernel_calls):
        f = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2.0  # unitary
        m = f @ np.diag([-2e-9, 0.3, 0.3, 0.4 + 2e-9]) @ f.conj().T
        with pytest.raises(NotPositiveError, match="minimum eigenvalue -2.000e-09 below"):
            ss.validate_density(m)
        assert len(kernel_calls) == 1


@pytest.mark.parametrize("m", [
    np.ones((2, 3)), np.ones(3), "abc", [[1.0, 0.0], [0.0]], None, np.zeros((0, 0)),
], ids=["2x3", "vector", "string", "ragged", "none", "0x0"])
def test_malformed_operand_raises_bad_matrix_error(m):
    for check in (ss.validate_density, ss.validate_povm_element, ss.hermitian_eig):
        with pytest.raises(BadMatrixError):
            check(m)
    with pytest.raises(BadMatrixError) as err:
        ss.StateSet.from_matrices([m])
    assert str(err.value).startswith("state 0: ")


def valid_matrices(count, dim=3):
    return [ss.random_density(dim, 1 + k % dim, 90 + k).matrix for k in range(count)]


class TestScreenDensities:
    def test_a_single_valid_matrix_is_passed(self):
        # No size constant: a set of any size, one state included, is screened.
        for count in (1, 2, 9, 10, 12):
            assert ss.states.screen_densities(valid_matrices(count)).all()
        for dim in (1, 2, 16):
            assert ss.states.screen_densities([ss.random_density(dim, dim, 4).matrix]).all()

    def test_only_certain_states_pass(self):
        mats = valid_matrices(12)
        mats[1] = np.array(mats[1])
        mats[1][0, 0] = np.nan
        mats[3] = mats[3] + np.diag([0.0, 0.0, 2e-9])  # trace off by 2e-9
        mats[5] = mats[5].copy()
        mats[5][0, 1] += 0.1  # not Hermitian
        mats[7] = np.diag([1.0 + 1e-9, -1e-9, 0.0])  # eigenvalue at the floor exactly
        mats[9] = np.array([[0.5, 1e160, 0], [1e160, 0.5, 0], [0, 0, 0]])
        passed = ss.states.screen_densities(mats)
        assert passed.tolist() == [k not in (1, 3, 5, 7, 9) for k in range(12)]
        # The state at the floor is valid, but only validate_density says so.
        ss.validate_density(mats[7])
        with pytest.raises(NotPositiveError):
            ss.StateSet.from_matrices(mats[6:7] + mats[9:] + mats[:6])

    @pytest.mark.parametrize("mats", [
        [np.eye(2) / 2] * 11 + [np.eye(3) / 3],  # ragged
        [np.ones((2, 3))] * 12,  # not square
        [[["a"]]] * 12,
        [[[10 ** 400]]] * 12,
        [{}] * 12,
    ])
    def test_no_stack_of_square_matrices_passes_nothing(self, mats):
        assert not ss.states.screen_densities(mats).any()

    def test_certificate_failure_passes_nothing(self, monkeypatch, kernel_calls):
        def fail(h, floor):
            return np.zeros(len(h), dtype=bool)

        mats = valid_matrices(12)
        monkeypatch.setattr(ss.states, "_lowest_above", fail)
        # validate_density screens each d = 3 state on its rows.
        monkeypatch.setattr(ss.states, "_factors_above", lambda rows, floor: False)
        assert not ss.states.screen_densities(mats).any()
        kernel_calls.clear()
        sset = ss.StateSet.from_matrices(mats)
        # Every state went through validate_density, one spectrum each.
        assert len(kernel_calls) == 12
        assert sset.stack().tobytes() == np.array(mats).tobytes()


class TestLowestAbove:
    """The certificate on a numpy stack (_lowest_above) and on rows of Python
    numbers (_factors_above), each checked on its own representation."""

    def test_floor_is_per_matrix(self):
        h = np.array([np.diag([0.25, 1.0]), np.diag([0.25, 1.0]), np.diag([-0.25, 1.0])])
        assert ss.states._lowest_above(h, 0.2).tolist() == [True, True, False]
        assert ss.states._lowest_above(h, [0.2, 0.3, -0.3]).tolist() == [True, False, True]
        rows = h.astype(complex).tolist()
        assert [ss.states._factors_above(m, f) for m, f in zip(rows, [0.2, 0.3, -0.3])] == \
            [True, False, True]

    def test_eigenvalue_on_the_floor_is_not_passed(self):
        # Proof needs the floor cleared by the rounding shift.
        for dim in (1, 2, 16):
            h = np.diag(np.linspace(0.1, 1.0, dim))
            assert ss.states._lowest_above(h[None], 0.1 - 1e-12)[0]
            assert not ss.states._lowest_above(h[None], 0.1)[0]
            rows = h.astype(complex).tolist()
            assert ss.states._factors_above(rows, 0.1 - 1e-12)
            assert not ss.states._factors_above(rows, 0.1)

    def test_rotated_states_pass_and_rows_are_independent(self):
        stack = np.array([ss.random_density(6, 6, seed).matrix for seed in range(40)])
        stack = (stack + stack.conj().transpose(0, 2, 1)) / 2.0
        lowest = np.linalg.eigvalsh(stack)[:, 0]
        floors = lowest - 1e-12 * np.where(np.arange(40) % 2, 1.0, -1.0)
        passed = ss.states._lowest_above(stack, floors)
        assert passed.tolist() == [k % 2 == 1 for k in range(40)]
        for k in range(40):
            assert ss.states._lowest_above(stack[k:k + 1], floors[k])[0] == passed[k]
            assert ss.states._factors_above(stack[k].tolist(), float(floors[k])) == passed[k]


class TestScreenPovmElement:
    @pytest.mark.parametrize("m,ok", [
        (np.eye(3) / 2.0, True),
        (np.eye(3), True),
        (np.zeros((3, 3)), True),
        (np.diag([1.0 + 1e-9, 0.5]), False),  # on the ceiling: validate decides
        (np.diag([-1e-9, 0.5]), False),  # on the floor
        (np.diag([1.2, 0.0]), False),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), False),  # not Hermitian
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), False),
        (np.ones((2, 3)), False),
    ])
    def test_only_certain_elements_pass(self, m, ok):
        assert ss.states.screen_povm_element(m) is ok


class TestValidatePovmElement:
    def test_identity_and_zero(self):
        for m in (np.eye(3), np.zeros((3, 3))):
            t = ss.validate_povm_element(m)
            assert t.dim == 3

    def test_spectrum_out_of_range(self):
        with pytest.raises(SpectrumOutOfRangeError) as err:
            ss.validate_povm_element(np.diag([1.2, 0.0]))
        assert "1.2" in str(err.value)
        with pytest.raises(SpectrumOutOfRangeError):
            ss.validate_povm_element(np.diag([-0.2, 0.5]))

    def test_projector_valid(self):
        ss.validate_povm_element(np.diag([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_screened_element_spends_no_eigendecomposition(self, kernel_calls, dim):
        rho = ss.random_density(dim, dim, 3).matrix
        m = rho / np.abs(rho).max() / dim
        kernel_calls.clear()
        assert ss.validate_povm_element(m).matrix.tobytes() == m.tobytes()
        assert len(kernel_calls) == 0
        # On the ceiling exactly, only the spectrum accepts it.
        ss.validate_povm_element(np.diag([0.5] * (dim - 1) + [ss.states.POVM_CEILING]))
        assert len(kernel_calls) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [2, 7])  # each screen on Python numbers, then on numpy
class TestHugeComplexEntry:
    def test_state_is_not_positive(self, dim):
        with pytest.raises(NotPositiveError, match="^minimum eigenvalue -inf below -1.0e-09$"):
            ss.validate_density(huge_state(dim))
        with pytest.raises(NotPositiveError, match="^state 1: minimum eigenvalue -inf below"):
            ss.StateSet.from_matrices([np.eye(dim) / dim, huge_state(dim)])

    def test_measurement_is_out_of_range(self, dim):
        with pytest.raises(SpectrumOutOfRangeError, match="^eigenvalue -inf outside"):
            ss.validate_povm_element(huge_state(dim))


class TestStateSet:
    def test_uniform_dimension_enforced(self):
        with pytest.raises(DimensionMismatchError):
            ss.StateSet(dim=2, states=(density(KET0), density(np.eye(3) / 3.0)))

    def test_non_empty(self):
        with pytest.raises(EmptySetError):
            ss.StateSet(dim=2, states=())
        with pytest.raises(EmptySetError, match="^state set must contain at least one state$"):
            ss.StateSet.from_matrices([])

    def test_matrices_that_form_no_stack_are_validated_one_by_one(self):
        with pytest.raises(DimensionMismatchError,
                           match="^state 1 has dimension 3, set dimension is 2$"):
            ss.StateSet.from_matrices([np.eye(2) / 2, np.eye(3) / 3])
        with pytest.raises(NotPositiveError, match="^state 1: minimum eigenvalue -2.000e-01 below"):
            ss.StateSet.from_matrices([np.eye(2) / 2, np.diag([1.2, -0.2, 0.0])])

    def test_from_matrices_names_the_failing_state(self):
        mats = [np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([1.2, -0.2]), np.diag([2.0, 0.0])]
        with pytest.raises(NotPositiveError) as err:
            ss.StateSet.from_matrices(mats)
        assert str(err.value).startswith("state 2: minimum eigenvalue -2.000e-01")
        with pytest.raises(NotPositiveError, match="^state 2: "):
            ss.StateSet.from_matrices(m for m in mats)
        sset = ss.StateSet.from_matrices(m for m in mats[:2])
        assert sset.stack().tobytes() == np.array(mats[:2], dtype=complex).tobytes()

    @pytest.mark.parametrize("spectrum", [False, True])
    def test_states_of_a_stack_are_views_of_one_frozen_copy(self, monkeypatch, spectrum):
        # Screened or validated by their spectrum, the states are rows of
        # the set's stack, which is the caller's matrices copied once.
        if spectrum:
            monkeypatch.setattr(ss.states, "_lowest_above", lambda h, floor: np.zeros(len(h), bool))
        mats = np.array(valid_matrices(6))
        want = mats.copy()
        sset = ss.StateSet.from_matrices(mats)
        stack = sset.stack()
        assert all(rho.matrix.base is stack for rho in sset.states)
        assert not stack.flags.writeable and not np.shares_memory(stack, mats)
        mats[:] = 0.0
        assert stack.tobytes() == want.tobytes()

    def test_label_count(self):
        with pytest.raises(LengthMismatchError):
            ss.StateSet(dim=2, states=(density(KET0),), labels=("a", "b"))

    def test_stack_order(self):
        sset = state_set(KET0, KET1)
        np.testing.assert_array_equal(sset.stack()[0], KET0)
        np.testing.assert_array_equal(sset.stack()[1], KET1)


class TestMixtureState:
    def test_point_mass_is_exact(self):
        sset = state_set(KET0, KET1)
        out = ss.mixture_state([0.0, 1.0], sset)
        np.testing.assert_array_equal(out.matrix, sset.states[1].matrix)

    def test_uniform_two_projectors(self):
        out = ss.mixture_state([0.5, 0.5], state_set(KET0, KET1))
        np.testing.assert_allclose(out.matrix, MIXED2, atol=0)

    def test_weighted_diagonal(self):
        out = ss.mixture_state([0.75, 0.25], state_set(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        np.testing.assert_allclose(out.matrix, np.diag([0.75, 0.25]), atol=0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ss.mixture_state([1.0], state_set(KET0, KET1))

    def test_bad_weights(self):
        sset = state_set(KET0, KET1)
        with pytest.raises(BadWeightsError):
            ss.mixture_state([0.7, 0.7], sset)
        with pytest.raises(BadWeightsError):
            ss.mixture_state([-0.1, 1.1], sset)

    def test_linearity(self):
        rng = np.random.RandomState(17)
        states = [ss.random_density(3, 3, seed) for seed in (1, 2, 3)]
        sset = ss.StateSet(dim=3, states=tuple(states))
        for _ in range(20):
            mu = rng.dirichlet(np.ones(3))
            nu = rng.dirichlet(np.ones(3))
            alpha = rng.uniform()
            blended = ss.mixture_state(alpha * mu + (1 - alpha) * nu, sset)
            parts = (
                alpha * ss.mixture_state(mu, sset).matrix
                + (1 - alpha) * ss.mixture_state(nu, sset).matrix
            )
            assert np.abs(blended.matrix - parts).max() <= 1e-12

    def test_output_is_valid_state(self):
        rng = np.random.RandomState(19)
        states = [ss.random_density(4, 1 + k % 4, 100 + k) for k in range(4)]
        sset = ss.StateSet(dim=4, states=tuple(states))
        for _ in range(10):
            out = ss.mixture_state(rng.dirichlet(np.ones(4)), sset)
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-9


class TestRandomDensity:
    def test_dim_one(self):
        rho = ss.random_density(1, 1, seed=99)
        np.testing.assert_array_equal(rho.matrix, np.array([[1.0 + 0.0j]]))

    def test_deterministic(self):
        a = ss.random_density(2, 2, seed=42)
        b = ss.random_density(2, 2, seed=42)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_seed_changes_output(self):
        a = ss.random_density(2, 2, seed=42)
        b = ss.random_density(2, 2, seed=43)
        assert a.matrix.tobytes() != b.matrix.tobytes()

    def test_rank_one_is_pure(self):
        for seed in range(5):
            rho = ss.random_density(4, 1, seed)
            lam = ss.hermitian_eig(rho.matrix).eigenvalues
            assert lam[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(lam[:-1] <= 1e-9)

    def test_eigendecompositions_spent(self, kernel_calls, monkeypatch):
        # A well-conditioned full-rank draw is cleared by the certificate,
        # and only full-rank draws are checked at all.
        expected = [ss.random_density(4, rank, seed=5).matrix.tobytes() for rank in (1, 2, 3, 4)]
        assert len(kernel_calls) == 0
        # A draw the certificate cannot clear costs one spectrum, same bits.
        monkeypatch.setattr(ss.states, "_factors_above", lambda rows, floor: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ss.random_density(4, 4, seed=5).matrix.tobytes() == expected[3]
        assert len(kernel_calls) == 1
        for rank in (1, 2, 3):
            ss.random_density(4, rank, seed=5)
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("dim", [2, 7, 16])
    def test_full_rank_draw_is_cleared_on_python_numbers(self, dim, kernel_calls, monkeypatch):
        def numpy_certificate(h, floor):
            raise AssertionError("random_density factored a numpy stack")

        monkeypatch.setattr(ss.states, "_lowest_above", numpy_certificate)
        ss.random_density(dim, dim, seed=5)
        assert len(kernel_calls) == 0

    def test_near_singular_draw_warns(self, monkeypatch):
        # Both columns of G are (1, 1): a rank-2 draw that comes out as |+><+|.
        class Stub:
            def __init__(self, seed):
                pass

            def normals(self, count):
                return [1.0, 0.0] * (count // 2)

        monkeypatch.setattr(ss.states, "SplitMix64", Stub)
        with pytest.warns(RuntimeWarning, match="near-singular"):
            rho = ss.random_density(2, 2, seed=1)
        np.testing.assert_array_equal(rho.matrix, np.full((2, 2), 0.5 + 0.0j))

    def test_full_rank_is_positive(self):
        for seed in range(5):
            rho = ss.random_density(3, 3, seed)
            assert ss.hermitian_eig(rho.matrix).eigenvalues[0] > 1e-12

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            ss.random_density(2, 0, seed=1)
        with pytest.raises(BadRankError):
            ss.random_density(2, 3, seed=1)
        with pytest.raises(BadRankError):
            ss.random_density(0, 0, seed=1)
        for dim, rank in ((2.5, 2), (2, 1.0), ("2", 1), (True, 1), (2, None)):
            with pytest.raises(BadRankError, match="must be an integer"):
                ss.random_density(dim, rank, seed=1)

    def test_bad_seed(self):
        for seed in (1.5, 2.0, "3", None, True):
            with pytest.raises(BadConfigError, match="seed must be an integer"):
                ss.random_density(2, 2, seed)
        assert (ss.random_density(2, 2, np.uint64(7)).matrix.tobytes()
                == ss.random_density(2, 2, 7).matrix.tobytes())


class TestMixtureWeights:
    def test_simplex_tolerance(self):
        ss.as_mixture_weights([0.5, 0.5 + 5e-10])
        with pytest.raises(BadWeightsError):
            ss.as_mixture_weights([0.5, 0.5 + 5e-9])

    def test_shape(self):
        with pytest.raises(BadWeightsError):
            ss.as_mixture_weights([[0.5, 0.5]])
        with pytest.raises(BadWeightsError):
            ss.as_mixture_weights([])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, value):
        with pytest.raises(BadWeightsError, match=rf"weight 1 is {value}, not a finite"):
            ss.as_mixture_weights([0.5, value, 0.5])
        with pytest.raises(BadWeightsError, match="weight 0 "):
            ss.mixture_state([value, 1.0], state_set(KET0, KET1))


# The checks that mixture_state and random_density no longer run, kept as
# properties: their outputs pass validate_density unchanged.

@st.composite
def validated_sets(draw, max_dim=6, max_states=5):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    count = draw(st.integers(min_value=1, max_value=max_states))
    matrices = [
        ss.random_density(dim, draw(st.integers(1, dim)), draw(st.integers(0, 2**64 - 1))).matrix
        for _ in range(count)
    ]
    return ss.StateSet.from_matrices(matrices)


@st.composite
def simplex_weights(draw, size):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
               .filter(lambda xs: sum(xs) > 0.0))
    w = np.array(raw)
    return w / w.sum()


def assert_validates_unchanged(rho):
    assert ss.validate_density(rho.matrix).matrix.tobytes() == rho.matrix.tobytes()


class TestAnalyticInvariants:
    @given(validated_sets(), st.data())
    def test_mixture_is_a_valid_state(self, sset, data):
        mu = data.draw(simplex_weights(len(sset)))
        assert_validates_unchanged(ss.mixture_state(mu, sset))

    @given(st.integers(1, 8), st.data(), st.integers(0, 2**64 - 1))
    def test_random_density_is_a_valid_state(self, dim, data, seed):
        rank = data.draw(st.integers(1, dim))
        assert_validates_unchanged(ss.random_density(dim, rank, seed))

    @given(validated_sets())
    def test_stack_is_shared_and_read_only(self, sset):
        stack = sset.stack()
        assert sset.stack() is stack
        assert stack.tobytes() == np.stack([rho.matrix for rho in sset.states]).tobytes()
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0



# Builds one record of each type from S0 = {|0><0|, I/2}, S1 = {|1><1|}.
RECORDS = {
    "DensityMatrix": lambda s0, s1: ss.validate_density(np.diag([0.5, 0.5])),
    "PovmElement": lambda s0, s1: ss.validate_povm_element(np.eye(2) / 2),
    "StateSet": lambda s0, s1: state_set(KET0, MIXED2),
    "EigenDecomposition": lambda s0, s1: ss.hermitian_eig(np.eye(2)),
    "GapReport": lambda s0, s1: ss.separation_gap(ss.validate_povm_element(np.eye(2) / 2), s0, s1),
    "SaddleResult": lambda s0, s1: ss.solve_saddle(s0, s1),
    "CertReport": lambda s0, s1: ss.certify_forward(
        ss.validate_povm_element(np.diag([1.0, 0.0])), s0, s1, trials=4, seed=1),
}


@pytest.mark.parametrize("kind", list(RECORDS))
def test_records_compare_and_hash_by_identity(kind):
    # An array field has no single truth value, so a record's equality and
    # hash go by identity: each works, on every record, without raising.
    s0, s1 = state_set(KET0, MIXED2), state_set(KET1)
    a, b = RECORDS[kind](s0, s1), RECORDS[kind](s0, s1)
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2
