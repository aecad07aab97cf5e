
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import statesep as ss
import statesep.hermitian as hm
from statesep.errors import NoConvergenceError, NotHermitianError, NotPositiveError

from conftest import huge_state, random_hermitian, random_instance


@st.composite
def hermitian_matrices(draw):
    dim = draw(st.integers(1, 20))
    parts = draw(hnp.arrays(np.float64, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
    m = parts[0] + 1j * parts[1]
    return (m + m.conj().T) / 2.0


@st.composite
def kernel_inputs(draw):
    """Hermitian matrices at d = 1-20 of the kinds that steer the kernel.

    Real ones, clustered spectra, blocks with exactly zero coupling (whose
    columns may need no reflector), near-diagonal ones, graded ones (rows
    and columns scaled by 10^-k, k up to 200, so that normal and subnormal
    entries meet in one column), and each possibly scaled above 2^500, to
    entries near 1e-158 (whose squares underflow), or to subnormal entries.
    """
    dim = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(("complex", "real", "clustered", "blocks", "near_diagonal",
                                 "graded")))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    if kind == "real":
        m = m.real.astype(complex)
    elif kind == "clustered":
        q = np.linalg.qr(m)[0]
        m = (q * rng.randint(-2, 3, dim)) @ q.conj().T
    elif kind == "blocks":
        block = rng.randint(3, size=dim)
        m[block[:, None] != block[None, :]] = 0.0
    elif kind == "near_diagonal":
        m = np.diag(m.diagonal().real) + 1e-12 * m
    elif kind == "graded":
        grade = 10.0 ** -rng.randint(0, 200, dim).astype(float)
        m = m * grade[:, None] * grade[None, :]
    scale = draw(st.sampled_from((1.0, 2.0 ** 600, 1e-158, 2.0 ** -1060)))
    return (m + m.conj().T) / 2.0 * scale


def exactly_scaled(h):
    """h times the power of two 2^-e that brings its largest entry into [1/2, 1), and e."""
    big = np.abs(h).max()
    e = int(np.frexp(big)[1]) if big else 0
    return np.ldexp(h.view(np.float64), -e).view(np.complex128), e


class TestHermitianEig:
    def test_diagonal_input(self):
        dec = hm.hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=0)
        # eigenvectors are a permuted identity
        np.testing.assert_allclose(np.abs(dec.eigenvectors), [[0, 1], [1, 0]], atol=1e-14)

    def test_identity(self):
        dec = hm.hermitian_eig(np.eye(5))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(5), atol=0)
        np.testing.assert_allclose(
            dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(5), atol=1e-12
        )

    def test_pauli_x(self):
        dec = hm.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-13)
        # (1, -1)/sqrt(2) and (1, 1)/sqrt(2), up to phase per column
        s = 1.0 / np.sqrt(2.0)
        for col, want in ((dec.eigenvectors[:, 0], np.array([s, -s])),
                          (dec.eigenvectors[:, 1], np.array([s, s]))):
            overlap = abs(np.vdot(want, col))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_dim_one(self):
        dec = hm.hermitian_eig(np.array([[2.5]]))
        np.testing.assert_allclose(dec.eigenvalues, [2.5])
        np.testing.assert_allclose(dec.eigenvectors, [[1.0]])

    @pytest.mark.parametrize("dim", [2, 3, 4, 7, 9, 12, 16])
    def test_reconstruction_random(self, dim):
        rng = np.random.RandomState(91 + dim)
        for _ in range(25):
            h = random_hermitian(rng, dim)
            dec = hm.hermitian_eig(h)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.linalg.norm(rebuilt - h) <= 1e-10
            assert np.linalg.norm(
                dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(dim)
            ) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_agrees_with_numpy(self):
        rng = np.random.RandomState(7)
        for dim in (2, 3, 5, 11, 17, 33):
            h = random_hermitian(rng, dim)
            mine = hm.hermitian_eig(h).eigenvalues
            np.testing.assert_allclose(mine, np.linalg.eigvalsh(h), atol=1e-11)

    @given(hermitian_matrices())
    def test_properties(self, h):
        dec = hm.hermitian_eig(h)
        vecs = dec.eigenvectors
        assert np.linalg.norm((vecs * dec.eigenvalues) @ vecs.conj().T - h) <= 1e-10
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dec.dim)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        again = hm.hermitian_eig(h)
        assert again.eigenvalues.tobytes() == dec.eigenvalues.tobytes()
        assert again.eigenvectors.tobytes() == vecs.tobytes()

    def test_deterministic(self):
        h = random_hermitian(np.random.RandomState(5), 6)
        a = hm.hermitian_eig(h)
        b = hm.hermitian_eig(h)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hm.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_borderline_input(self):
        h = np.array([[1.0, 0.5 + 4e-10j], [0.5 - 6e-10j, -1.0]])
        dec = hm.hermitian_eig(h)  # asymmetry ~2e-10 passes the 1e-9 gate
        assert dec.eigenvalues[0] < dec.eigenvalues[1]

    def test_no_convergence_error(self, monkeypatch):
        monkeypatch.setattr(hm, "_QL_ITERATIONS_PER_DIM", 0)
        for h in (np.array([[0.0, 1.0], [1.0, 0.0]]),
                  random_hermitian(np.random.RandomState(0), 12)):
            with pytest.raises(NoConvergenceError):
                hm.hermitian_eig(h)


class TestKernel:
    """Householder tridiagonalization and implicit QL: accuracy, exact spectra, convergence."""

    @given(hermitian_matrices())
    def test_agrees_with_eigvalsh(self, h):
        lam = hm.hermitian_eig(h).eigenvalues
        bound = hm.EIGENVALUE_TOL * max(1.0, np.linalg.norm(h))
        assert np.abs(lam - np.linalg.eigvalsh(h)).max() <= bound

    @given(kernel_inputs())
    def test_kernel_inputs(self, h):
        # eigvalsh and numpy's norms see h scaled exactly into [1/2, 1), so
        # huge, tiny and subnormal inputs are compared at full precision;
        # the eigenvalues are compared back at h's scale, where each of the
        # two may round once to a subnormal.
        dec = hm.hermitian_eig(h)
        scaled, e = exactly_scaled(h)
        norm = np.linalg.norm(scaled)
        ref = np.ldexp(np.linalg.eigvalsh(scaled), e)
        err = np.abs(dec.eigenvalues - ref).max()
        assert err <= np.ldexp(hm.EIGENVALUE_TOL * norm, e) + 2.0 ** -1073
        assert err <= hm.EIGENVALUE_TOL * max(1.0, np.ldexp(norm, e))
        vecs = dec.eigenvectors
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dec.dim)) <= 1e-12
        if e > -1000:
            lam = np.ldexp(dec.eigenvalues, -e)
            assert np.linalg.norm((vecs * lam) @ vecs.conj().T - scaled) <= 1e-12 * max(norm, 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_zero_matrix(self, dim):
        dec = hm.hermitian_eig(np.zeros((dim, dim)))
        assert dec.eigenvalues.tobytes() == np.zeros(dim).tobytes()
        assert dec.eigenvectors.tobytes() == np.eye(dim, dtype=np.complex128).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 5, 9, 16])
    def test_repeated_eigenvalues(self, dim):
        q = np.linalg.qr(random_hermitian(np.random.RandomState(dim), dim))[0]
        spectrum = np.sort(np.resize([1.0, -2.0, 1.0, 0.5], dim))
        dec = hm.hermitian_eig((q * spectrum) @ q.conj().T)
        assert np.abs(dec.eigenvalues - spectrum).max() <= 1e-14 * dim
        for value in np.unique(spectrum):
            got = dec.eigenvectors[:, np.abs(dec.eigenvalues - value) < 1e-6]
            want = q[:, spectrum == value]
            assert np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 8, 16, 20])
    def test_rank_one_projector(self, dim):
        rng = np.random.RandomState(40 + dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        dec = hm.hermitian_eig(np.outer(psi, psi.conj()))
        assert np.abs(dec.eigenvalues[:-1]).max() <= 1e-15 * dim
        assert abs(dec.eigenvalues[-1] - 1.0) <= 1e-15 * dim
        assert abs(abs(np.vdot(psi, dec.eigenvectors[:, -1])) - 1.0) <= 1e-14

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_blocks_with_zero_coupling(self, dim):
        rng = np.random.RandomState(60 + dim)
        h = random_hermitian(rng, dim)
        labels = rng.randint(3, size=dim)
        h[labels[:, None] != labels[None, :]] = 0.0
        blocks = [np.flatnonzero(labels == b) for b in np.unique(labels)]
        want = np.sort(np.concatenate([np.linalg.eigvalsh(h[np.ix_(i, i)]) for i in blocks]))
        dec = hm.hermitian_eig(h)
        assert np.abs(dec.eigenvalues - want).max() <= 1e-14 * np.linalg.norm(h)
        # Each eigenvector lies in one block.
        for k in range(dim):
            assert len(set(labels[np.abs(dec.eigenvectors[:, k]) > 1e-8])) == 1

    def test_graded_matrices_keep_orthonormal_eigenvectors(self):
        # Rows and columns scaled by 10^-k, k up to 200: columns below the
        # smallest normal number, and subnormal leading entries, occur in
        # matrices that no scaling of the whole brings into range.
        rng = np.random.RandomState(2)
        for _ in range(200):
            dim = rng.randint(2, 21)
            grade = 10.0 ** -rng.randint(0, 200, dim).astype(float)
            h = random_hermitian(rng, dim) * grade[:, None] * grade[None, :]
            dec = hm.hermitian_eig(h)
            vecs = dec.eigenvectors
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) <= 1e-12
            rebuilt = (vecs * dec.eigenvalues) @ vecs.conj().T
            assert np.linalg.norm(rebuilt - h) <= 1e-13 * np.linalg.norm(h)

    def test_graded_matrix_converges(self):
        # Couplings of 5e-9 and 1e-224 in one matrix: the bulge of a QL
        # step would underflow halfway up had the 1e-224 ones not deflated.
        h = np.full((5, 5), 1.37562487e-224, dtype=complex)
        h[0, 1] = h[1, 0] = 5e-9
        lam = hm.hermitian_eig(h).eigenvalues
        assert np.abs(lam - np.linalg.eigvalsh(h)).max() <= hm.EIGENVALUE_TOL * 5e-9


class TestHugeEntries:
    """Entries above 2^500 are scaled down by a power of two, not squared into overflow."""

    SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_both_kernels_return_the_huge_spectrum(self, sign):
        # hermitian_eig and eigvalsh, which ranks certify's trials.
        m = sign * 1e160 * self.SWAP
        expected = np.array([-1e160, 1e160])
        for lam in (hm.hermitian_eig(m).eigenvalues, np.linalg.eigvalsh(m)):
            assert np.abs(lam - expected).max() <= hm.EIGENVALUE_TOL * 1e160

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entry_whose_modulus_overflows_gives_infinite_eigenvalues(self):
        # The scaling exponent comes from the finite parts, and the
        # spectrum is past the largest float on both sides.
        assert hm.hermitian_eig(huge_state(2)).eigenvalues.tolist() == [-np.inf, np.inf]

    def test_scaling_commutes_bit_for_bit(self):
        h = random_hermitian(np.random.RandomState(5), 5)
        dec = hm.hermitian_eig(h)
        for power in (600, 900):
            big = hm.hermitian_eig(2.0 ** power * h)
            assert big.eigenvalues.tobytes() == (2.0 ** power * dec.eigenvalues).tobytes()
            assert big.eigenvectors.tobytes() == dec.eigenvectors.tobytes()

    def test_ordinary_matrices_keep_their_bits(self, monkeypatch):
        h = random_hermitian(np.random.RandomState(6), 6) * 2.0 ** 499
        dec = hm.hermitian_eig(h)
        monkeypatch.setattr(hm, "_SCALE_ABOVE", np.inf)
        unscaled = hm.hermitian_eig(h)
        assert dec.eigenvalues.tobytes() == unscaled.eigenvalues.tobytes()
        assert dec.eigenvectors.tobytes() == unscaled.eigenvectors.tobytes()


class TestTinyEntries:
    """A nonzero matrix with every entry below 2^-500 is scaled up by a power of two."""

    def test_scaling_up_commutes_bit_for_bit(self):
        h = random_hermitian(np.random.RandomState(5), 5)
        dec = hm.hermitian_eig(h)
        for power in (-600, -900):
            tiny = hm.hermitian_eig(2.0 ** power * h)
            assert tiny.eigenvalues.tobytes() == (2.0 ** power * dec.eigenvalues).tobytes()
            assert tiny.eigenvectors.tobytes() == dec.eigenvectors.tobytes()

    @pytest.mark.parametrize("entry", [9.49e-159, 1e-300, 2.0 ** -1070])
    def test_equal_entries(self, entry):
        # Rank one: eigenvalues 0, 0 and 3 * entry.  9.49e-159 is the
        # matrix whose squares underflow; 2^-1070 is subnormal.
        dec = hm.hermitian_eig(np.full((3, 3), entry, dtype=complex))
        assert np.abs(dec.eigenvalues[:2]).max() <= 1e-15 * entry
        assert dec.eigenvalues[2] == pytest.approx(3 * entry, rel=1e-15)
        vecs = dec.eigenvectors
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(3)) <= 1e-14


class TestLazyEigenvectors:
    """Eigenvectors are replayed from the kernel's log only when read."""

    def test_paths_that_read_eigenvalues_replay_nothing(self, replays, kernel_calls):
        set0, set1 = random_instance(3, dims=(4,))
        res = ss.solve_saddle(set0, set1, ss.SolverConfig(target_gap=1e-3))
        ss.certify_forward(res.measurement, set0, set1, trials=200, seed=1)
        ss.trace_distance(set0.states[0], set1.states[0])
        ss.validate_density(np.eye(2) / 2)
        with pytest.raises(NotPositiveError):
            ss.validate_density(np.diag([1.0 + 1e-8, 0.0, -1e-8]))
        # On the ceiling exactly: the screen leaves it, the spectrum accepts it.
        ss.validate_povm_element(np.diag([0.2, 0.7, ss.states.POVM_CEILING]))
        assert len(kernel_calls) >= 6
        assert replays == []

    def test_one_replay_however_often_read(self, replays):
        h = random_hermitian(np.random.RandomState(41), 5)
        dec = hm.hermitian_eig(h)
        assert replays == []
        assert dec.eigenvectors is dec.eigenvectors
        assert len(replays) == 1
        hm.positive_part_projector(h)
        assert len(replays) == 2


class TestTrace:
    def test_identity(self):
        assert hm.trace(np.eye(4)) == 4 + 0j

    def test_zero(self):
        assert hm.trace(np.zeros((3, 3))) == 0j

    def test_diag(self):
        assert hm.trace(np.diag([0.75, 0.25])) == 1.0

    def test_additive(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            lhs = hm.trace(a + b)
            rhs = hm.trace(a) + hm.trace(b)
            assert abs(lhs - rhs) <= 1e-12


class TestPositivePartProjector:
    def test_diagonal_examples(self):
        np.testing.assert_allclose(
            hm.positive_part_projector(np.diag([0.5, -0.5])), np.diag([1.0, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            hm.positive_part_projector(np.zeros((2, 2))), np.zeros((2, 2)), atol=0
        )
        np.testing.assert_allclose(
            hm.positive_part_projector(np.diag([2.0, 1.0, -3.0])),
            np.diag([1.0, 1.0, 0.0]),
            atol=1e-12,
        )

    def test_no_positive_part_gives_exact_zero(self):
        for h in (np.zeros((3, 3)), np.diag([-1.0, 0.0, -2.0])):
            p = hm.positive_part_projector(h)
            assert p.dtype == np.complex128
            assert p.tobytes() == np.zeros((3, 3), dtype=np.complex128).tobytes()

    def test_kernel_excluded(self):
        p = hm.positive_part_projector(np.diag([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_idempotent_and_rank_bounded(self):
        rng = np.random.RandomState(23)
        for dim in (2, 3, 4, 6):
            h = random_hermitian(rng, dim)
            p = hm.positive_part_projector(h)
            assert np.linalg.norm(p @ p - p) <= 1e-9
            tr = hm.trace(p).real
            assert -1e-9 <= tr <= dim + 1e-9

    def test_captures_positive_eigenvalue_mass(self):
        rng = np.random.RandomState(29)
        for _ in range(20):
            h = random_hermitian(rng, 4)
            lam = hm.hermitian_eig(h).eigenvalues
            want = lam[lam > hm.POSITIVE_CUTOFF].sum()
            got = hm.trace(hm.positive_part_projector(h) @ h).real
            assert abs(got - want) <= 1e-9

    def test_beats_random_projectors(self):
        rng = np.random.RandomState(31)
        for _ in range(5):
            dim = 2 + rng.randint(3)
            h = random_hermitian(rng, dim)
            base = hm.trace(hm.positive_part_projector(h) @ h).real
            for _ in range(200):
                rank = rng.randint(0, dim + 1)
                if rank == 0:
                    q = np.zeros((dim, dim), dtype=complex)
                else:
                    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
                    orth, _ = np.linalg.qr(g)
                    q = orth @ orth.conj().T
                assert hm.trace(q @ h).real <= base + 1e-8


def test_check_hermitian_tolerance():
    good = np.array([[1.0, 1e-10j], [0.0, 1.0]])
    hm.check_hermitian(good)
    with pytest.raises(NotHermitianError):
        hm.check_hermitian(np.array([[1.0, 1e-8j], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pair,asym", [
    ((np.inf, 0.0), "inf"),
    ((np.inf, np.inf), "nan"),  # inf - inf
    ((1e308 + 1e308j, -0.5e308 + 0.5e308j), "inf"),  # finite, its asymmetry not
])
def test_check_hermitian_words_an_overflowing_asymmetry_without_warning(pair, asym):
    m = np.eye(2, dtype=complex) / 2
    m[0, 1], m[1, 0] = pair
    with pytest.raises(NotHermitianError,
                       match=f"^max entry asymmetry {asym} exceeds tolerance 1.0e-09$"):
        hm.check_hermitian(m)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hm.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hm.as_matrix(np.zeros(4))
