import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import statesep.hermitian as hm
from statesep.errors import NoConvergenceError, NotHermitianError

from conftest import random_hermitian


@st.composite
def hermitian_matrices(draw):
    dim = draw(st.integers(1, 20))
    parts = draw(hnp.arrays(np.float64, (2, dim, dim), elements=st.floats(-1.0, 1.0)))
    m = parts[0] + 1j * parts[1]
    return (m + m.conj().T) / 2.0


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
        monkeypatch.setattr(hm, "_MAX_SWEEPS", 0)
        for h in (np.array([[0.0, 1.0], [1.0, 0.0]]),
                  random_hermitian(np.random.RandomState(0), 12)):
            with pytest.raises(NoConvergenceError):
                hm.hermitian_eig(h)


def mixed_stack():
    """Random, diagonal, zero, tiny and huge matrices, d = 5, in one stack."""
    rng = np.random.RandomState(17)
    mats = [random_hermitian(rng, 5) for _ in range(6)]
    mats[1] = np.diag([3.0, -1.0, 0.0, 0.5, 2.0]).astype(complex)
    mats[2] = np.zeros((5, 5), dtype=complex)
    mats[3] = mats[3] * 1e-30
    mats[4] = mats[4] * 1e30
    # Block diagonal: exact zeros at (p, q) pairs the others rotate.
    mats[5][:2, 2:] = 0.0
    mats[5][2:, :2] = 0.0
    return np.array(mats)


class TestEigvalsStack:
    def test_rows_match_each_matrix_alone_bit_for_bit(self):
        stack = mixed_stack()
        lam = hm._eigvals_stack(stack)
        for k in range(len(stack)):
            assert hm._eigvals_stack(stack[k:k + 1])[0].tobytes() == lam[k].tobytes()
        order = np.random.RandomState(3).permutation(len(stack))
        assert hm._eigvals_stack(stack[order]).tobytes() == lam[order].tobytes()

    def test_agrees_with_hermitian_eig(self):
        stack = mixed_stack()
        for h, lam in zip(stack, hm._eigvals_stack(stack)):
            bound = 1e-13 * max(1.0, np.linalg.norm(h))
            assert np.abs(lam - hm.hermitian_eig(h).eigenvalues).max() <= bound
            assert np.abs(lam - np.linalg.eigvalsh(h)).max() <= bound

    def test_dim_one(self):
        lam = hm._eigvals_stack(np.array([[[2.5]], [[-1.0]], [[0.0]]]))
        assert lam.tobytes() == np.array([[2.5], [-1.0], [0.0]]).tobytes()

    def test_zero_and_diagonal_stacks_are_exact(self):
        assert hm._eigvals_stack(np.zeros((3, 4, 4))).tobytes() == np.zeros((3, 4)).tobytes()
        diag = np.array([[2.0, -1.0, 0.5], [0.0, 7.0, -3.0]])
        stack = np.array([np.diag(row) for row in diag])
        assert hm._eigvals_stack(stack).tobytes() == np.sort(diag, axis=1).tobytes()

    def test_ascending_rows(self):
        lam = hm._eigvals_stack(mixed_stack())
        assert np.all(np.diff(lam, axis=1) >= 0.0)

    def test_rejects_nan_and_names_the_matrix(self):
        stack = mixed_stack()
        stack[2, 1, 3] = np.nan
        with pytest.raises(NotHermitianError, match="matrix 2"):
            hm._eigvals_stack(stack)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hm._eigvals_stack(np.array([[[0.0, 1.0], [0.0, 0.0]]]))

    def test_rejects_bad_shapes(self):
        for shape in ((2, 2), (1, 2, 3), (1, 0, 0)):
            with pytest.raises(ValueError):
                hm._eigvals_stack(np.zeros(shape))

    def test_no_convergence_error(self, monkeypatch):
        monkeypatch.setattr(hm, "_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergenceError):
            hm._eigvals_stack(mixed_stack())
        # A stack that needs no sweep at all still passes the cap.
        assert hm._eigvals_stack(np.zeros((2, 3, 3))).shape == (2, 3)

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hm._eigvals_stack(mixed_stack())
            for dim in (1, 2, 3, 8):
                hm._eigvals_stack(np.array(
                    [random_hermitian(np.random.RandomState(dim + k), dim) for k in range(4)]
                ))


class TestHugeEntries:
    """Entries above 2^500 are scaled down by a power of two, not squared into overflow."""

    SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_both_kernels_return_the_huge_spectrum(self, sign):
        m = sign * 1e160 * self.SWAP
        expected = np.array([-1e160, 1e160])
        for lam in (hm.hermitian_eig(m).eigenvalues, hm._eigvals_stack(m[None])[0]):
            assert np.abs(lam - expected).max() <= 1e-13 * 1e160

    def test_scaling_commutes_bit_for_bit(self):
        h = random_hermitian(np.random.RandomState(5), 5)
        stack = np.array([h, 2.0 ** 600 * h, 2.0 ** 900 * h])
        dec = hm.hermitian_eig(h)
        lam = hm._eigvals_stack(stack)
        for k, power in enumerate((0, 600, 900)):
            big = hm.hermitian_eig(2.0 ** power * h)
            assert big.eigenvalues.tobytes() == (2.0 ** power * dec.eigenvalues).tobytes()
            assert big.eigenvectors.tobytes() == dec.eigenvectors.tobytes()
            assert lam[k].tobytes() == (2.0 ** power * lam[0]).tobytes()

    def test_ordinary_matrices_keep_their_bits(self, monkeypatch):
        h = random_hermitian(np.random.RandomState(6), 6) * 2.0 ** 499
        stack = mixed_stack()
        dec, lam = hm.hermitian_eig(h), hm._eigvals_stack(stack)
        monkeypatch.setattr(hm, "_SCALE_ABOVE", np.inf)
        unscaled = hm.hermitian_eig(h)
        assert dec.eigenvalues.tobytes() == unscaled.eigenvalues.tobytes()
        assert dec.eigenvectors.tobytes() == unscaled.eigenvectors.tobytes()
        assert lam.tobytes() == hm._eigvals_stack(stack).tobytes()


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


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hm.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hm.as_matrix(np.zeros(4))
