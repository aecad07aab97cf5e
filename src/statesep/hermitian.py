"""Self-contained dense Hermitian linear algebra.

Matrices are numpy arrays of complex128, shape (d, d), row-major.  The
eigensolver is a cyclic Jacobi iteration with complex plane rotations
(Golub & Van Loan, Matrix Computations, 8.5), run by one kernel,
_jacobi.  Every eigenvalue behind a number that the solver, certify or
the CLI reports comes from it, so none rests on the numpy eigensolvers
used as oracles in the tests.  LAPACK serves only where its output is
not reported: certify_forward ranks its sampled trials with numpy's
eigvalsh and recomputes the closest ones here, and the LP master
(_master.py) inverts its basis with np.linalg.inv to choose weights that
the solver then evaluates exactly.  The grid oracles (oracles.py) use
eigvalsh on purpose, as a reference independent of this module.

hermitian_eig serves every matrix at every dimension.  Its kernel rotates
rows and columns kept as Python lists of native complex numbers.  Up to
d ~ 30 that beats rotating numpy rows and columns by slicing (5x faster
at d = 4, 2.6x at d = 12, 2x at d = 16); beyond, it costs more, 1.4x the
sliced rotations' time at d = 48 and about 2x at d = 64, where a solve
needing thousands of eigendecompositions is impractical with either.

Validating a loaded state or measurement needs no spectrum, only a proof
that no eigenvalue lies below a floor.  states._lowest_above gives one by
a shifted Cholesky factorization, and screen_densities and
screen_povm_element use it; hermitian_eig decomposes only the matrices
the proof cannot clear, in validate_density and validate_povm_element.

hermitian_eig scales a matrix with an entry above 2^500 down by an exact
power of two before iterating, and its eigenvalues back up, so that the
squares in the Frobenius norm cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Eigenvalues sorted ascending; eigenvector k is ``eigenvectors[:, k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array (C order), without copying if possible."""
    a = np.asarray(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return the input as a matrix, raising NotHermitianError beyond `tol`."""
    a = as_matrix(m)
    asym = float(np.abs(a - a.conj().T).max())
    if not asym <= tol:
        raise NotHermitianError(
            f"max entry asymmetry {asym:.3e} exceeds tolerance {tol:.1e}"
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
    """Cyclic sweeps on native complex scalars (rows as Python lists)."""
    n = hmat.shape[0]
    h: list[list[complex]] = hmat.tolist()
    v: list[list[complex]] = np.eye(n, dtype=np.complex128).tolist()
    limit = threshold * threshold

    def offdiag_sq() -> float:
        # Summed entry by entry (not total minus diagonal: that subtraction
        # of near-equal numbers floors out at rounding noise ~1e-15 * ||M||^2).
        total = 0.0
        for p in range(n):
            hp = h[p]
            for q in range(n):
                if q != p:
                    z = hp[q]
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
                app = h[p][p].real
                aqq = h[q][q].real
                c, s, t, absb, phase = _rotation_params(hp[q], app, aqq)
                hq = h[q]
                cph = c * phase
                sph = s * phase
                for k in range(n):
                    a = hp[k]
                    b = hq[k]
                    hp[k] = c * a - sph * b
                    hq[k] = s * a + cph * b
                conj_phase = phase.conjugate()
                cpc = c * conj_phase
                spc = s * conj_phase
                for row in h:
                    a = row[p]
                    b = row[q]
                    row[p] = c * a - spc * b
                    row[q] = s * a + cpc * b
                for row in v:
                    a = row[p]
                    b = row[q]
                    row[p] = c * a - spc * b
                    row[q] = s * a + cpc * b
                hp[q] = 0j
                h[q][p] = 0j
                hp[p] = complex(app - t * absb)
                h[q][q] = complex(aqq + t * absb)
    else:
        if offdiag_sq() > limit:
            raise NoConvergenceError(
                f"off-diagonal norm above {threshold:.3e} after {_MAX_SWEEPS} sweeps"
            )
    eigenvalues = np.array([h[k][k].real for k in range(n)])
    return eigenvalues, np.array(v, dtype=np.complex128)


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
    eigenvalues, v = _jacobi(h, threshold, skip)
    if exponent:
        eigenvalues = np.ldexp(eigenvalues, exponent)
    order = np.argsort(eigenvalues, kind="stable")
    return EigenDecomposition(
        eigenvalues=np.ascontiguousarray(eigenvalues[order]),
        eigenvectors=np.ascontiguousarray(v[:, order]),
    )


def positive_part_projector(h) -> np.ndarray:
    """Projector onto the eigenspaces of `h` with eigenvalue > POSITIVE_CUTOFF.

    Maximizes Tr(P H) over all projectors; Tr(P H) equals the sum of the
    eigenvalues above the cutoff.
    """
    dec = hermitian_eig(h)
    cols = dec.eigenvectors[:, dec.eigenvalues > POSITIVE_CUTOFF]
    return cols @ cols.conj().T
