"""Self-contained dense Hermitian linear algebra.

Matrices are numpy arrays of complex128, shape (d, d), row-major.  The
eigensolver is a cyclic Jacobi iteration with complex plane rotations
(Golub & Van Loan, Matrix Computations, 8.5), run by one kernel,
_jacobi.  Every eigenvalue behind a number that the solver, certify or
the CLI reports comes from it, so none rests on the numpy eigensolvers
used as oracles in the tests.  numpy and LAPACK serve only where their
output is not reported: certify_forward ranks its sampled trials with
weights from numpy's log and distances from numpy's eigvalsh, and
recomputes the closest ones here, from their stream weights (math.log),
so its reported bytes depend on neither; solve_saddle chooses each
cut from numpy's eigh of its query and recomputes here the distance of
every query that could lower the upper bound, so every reported upper
bound is a value of this kernel; and the LP master (_master.py) inverts
its basis with np.linalg.inv to choose weights that the solver then
evaluates exactly.  The grid oracles (oracles.py) use eigvalsh on
purpose, as a reference independent of this module.

hermitian_eig serves every matrix at every dimension.  Its kernel rotates
the upper triangle, kept as Python lists of native complex numbers.  For
eigenvalues that beats numpy rows and columns rotated by slicing up to
d ~ 48 (5x faster at d = 4, 3x at d = 12, 2.6x at d = 16); at d = 64
slicing takes 0.8 of its time, and a solve needing thousands of
eigendecompositions is impractical with either.

Validating a state or measurement needs no spectrum, only a proof that
no eigenvalue lies below a floor.  states._lowest_above gives one by a
shifted Cholesky factorization, and screen_densities and
screen_povm_element use it.  hermitian_eig decomposes a state in
validate_density only at d <= 2, where one rotation is cheaper than the
proof, or when the proof cannot clear it.  validate_povm_element screens
a measurement itself, at every d, and decomposes it only when the proof
cannot clear it; building a set with StateSet.from_matrices, and so
loading one, decomposes only the states the screen rejects.

hermitian_eig scales a matrix with an entry above 2^500 down by an exact
power of two before iterating, and its eigenvalues back up, so that the
squares in the Frobenius norm cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NoConvergenceError, NotHermitianError

# Max entry asymmetry tolerated before a matrix is rejected as non-Hermitian.
HERMITICITY_TOL = 1e-9
# Eigenvalues strictly above this cutoff count as the "positive part";
# kernel directions are excluded for determinism.
POSITIVE_CUTOFF = 1e-10
# Sweep convergence: off-diagonal Frobenius norm relative to ||M||_F.
_OFFDIAG_REL_TOL = 1e-13
_MAX_SWEEPS = 100
# A matrix with an entry above this modulus is iterated on scaled by 2^-e,
# e the binary exponent of its largest entry modulus, so that every entry
# is below 1, and its eigenvalues are scaled back by 2^e: the Frobenius
# norm squares the entries, which overflows above about 2^512.  Scaling by
# a power of two is exact for every entry that stays normal, and the
# Jacobi iteration commutes with it.
_SCALE_ABOVE = 2.0 ** 500


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending; eigenvector k is ``eigenvectors[:, k]``,
    built on first read from the kernel's rotations (_replay) and kept."""

    eigenvalues: np.ndarray
    _rotations: list = field(repr=False, compare=False)
    _order: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        v = _replay(self.dim, self._rotations)
        return np.ascontiguousarray(v[:, self._order])

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array (C order), without copying if possible."""
    a = np.asarray(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m) -> np.ndarray:
    """Return the input as a matrix, raising NotHermitianError beyond HERMITICITY_TOL."""
    a = as_matrix(m)
    asym = float(np.abs(a - a.conj().T).max())
    if not asym <= HERMITICITY_TOL:
        raise NotHermitianError(
            f"max entry asymmetry {asym:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}"
        )
    return a


def trace(m) -> complex:
    """Sum of diagonal entries, accumulated in index order."""
    a = as_matrix(m)
    return complex(a.diagonal().sum())


def _rotation_params(b: complex, app: float, aqq: float):
    """Cosine, sine, and phase zeroing the off-diagonal of a 2x2 Hermitian block.

    For the block [[app, b], [conj(b), aqq]] the unitary
    [[c, s], [-s e^{-i beta}, c e^{-i beta}]] (beta the phase of b) makes
    it diagonal, with app - t|b| and aqq + t|b| on the diagonal.
    """
    absb = abs(b)
    phase = b / absb
    tau = (aqq - app) / (2.0 * absb)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(tau * tau + 1.0))
    else:
        t = -1.0 / (-tau + math.sqrt(tau * tau + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c, t, absb, phase


def _jacobi(hmat: np.ndarray, threshold: float, skip: float):
    """Cyclic sweeps on the upper triangle, rows kept as Python lists.

    Returns the diagonal and the log of rotations (p, q, c, s, spc, cpc).
    Entry k of row p and column q takes the column formula for k < p, the
    row formula for k > q, and between reads h[q][k] and h[k][p] as
    conjugates.  CPython's complex product and difference commute with
    conjugation, so this gives the bits of rotating the full matrix.
    """
    n = hmat.shape[0]
    h: list[list[complex]] = hmat.tolist()
    rotations: list[tuple] = []
    limit = threshold * threshold

    def offdiag_sq() -> float:
        # Entry by entry in row-major order, the lower triangle read from the
        # upper (total minus diagonal floors out at noise ~1e-15 * ||M||^2).
        total = 0.0
        for p in range(n):
            for z in [h[q][p] for q in range(p)] + h[p][p + 1:]:
                total += z.real * z.real + z.imag * z.imag
        return total

    for _ in range(_MAX_SWEEPS):
        if offdiag_sq() <= limit:
            break
        for p in range(n - 1):
            hp = h[p]
            for q in range(p + 1, n):
                if abs(hp[q]) <= skip:
                    continue
                app = hp[p].real
                aqq = h[q][q].real
                c, s, t, absb, phase = _rotation_params(hp[q], app, aqq)
                hq = h[q]
                sph = s * phase
                conj_phase = phase.conjugate()
                cpc = c * conj_phase
                spc = s * conj_phase
                for k in range(p):
                    row = h[k]
                    a = row[p]
                    b = row[q]
                    row[p] = c * a - spc * b
                    row[q] = s * a + cpc * b
                for k in range(p + 1, q):
                    row = h[k]
                    a = hp[k]
                    b = row[q]
                    hp[k] = c * a - sph * b.conjugate()
                    row[q] = s * a.conjugate() + cpc * b
                cph = c * phase
                for k in range(q + 1, n):
                    a = hp[k]
                    b = hq[k]
                    hp[k] = c * a - sph * b
                    hq[k] = s * a + cph * b
                rotations.append((p, q, c, s, spc, cpc))
                hp[q] = 0j
                hp[p] = complex(app - t * absb)
                hq[q] = complex(aqq + t * absb)
    else:
        if offdiag_sq() > limit:
            raise NoConvergenceError(
                f"off-diagonal norm above {threshold:.3e} after {_MAX_SWEEPS} sweeps"
            )
    return np.array([h[k][k].real for k in range(n)]), rotations


def _replay(n: int, rotations: list) -> np.ndarray:
    """The eigenvectors: _jacobi's rotations applied to the identity."""
    v: list[list[complex]] = np.eye(n, dtype=np.complex128).tolist()
    for p, q, c, s, spc, cpc in rotations:
        for row in v:
            a, b = row[p], row[q]
            row[p], row[q] = c * a - spc * b, s * a + cpc * b
    return np.array(v, dtype=np.complex128)


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    The input is checked against HERMITICITY_TOL and symmetrized to
    (M + M^dag)/2 before iterating; a matrix with an entry above 2^500 is
    first scaled down by an exact power of two, and its eigenvalues back
    up.  Sweeps stop once the off-diagonal Frobenius norm falls to
    1e-13 * ||M||_F; more than 100 sweeps raises NoConvergenceError.
    Output is deterministic for identical input bits: eigenvalues
    ascending, ties kept in Jacobi output order.
    """
    a = check_hermitian(m)
    big = float(np.abs(a).max())
    exponent = math.frexp(big)[1] if big > _SCALE_ABOVE else 0
    if exponent:
        a = a * math.ldexp(1.0, -exponent)
    h = (a + a.conj().T) / 2.0
    n = h.shape[0]
    threshold = _OFFDIAG_REL_TOL * float(np.linalg.norm(h))
    # Entries at or below `skip` never need their own rotation: even if all
    # n(n-1) of them remain, the off-diagonal norm stays under threshold.
    skip = threshold / max(n, 2)
    eigenvalues, rotations = _jacobi(h, threshold, skip)
    if exponent:
        eigenvalues = np.ldexp(eigenvalues, exponent)
    order = np.argsort(eigenvalues, kind="stable")
    return EigenDecomposition(np.ascontiguousarray(eigenvalues[order]), rotations, order)


def positive_part_projector(h) -> np.ndarray:
    """Projector onto the eigenspaces of `h` with eigenvalue > POSITIVE_CUTOFF.

    Maximizes Tr(P H) over all projectors; Tr(P H) equals the sum of the
    eigenvalues above the cutoff.
    """
    dec = hermitian_eig(h)
    cols = dec.eigenvectors[:, dec.eigenvalues > POSITIVE_CUTOFF]
    return cols @ cols.conj().T
