"""Self-contained dense Hermitian linear algebra.

Matrices are numpy arrays of complex128, shape (d, d), row-major.  The
eigensolver is a cyclic Jacobi iteration with complex plane rotations
(Golub & Van Loan, Matrix Computations, 8.5); no LAPACK routine is
involved, which keeps every production code path independent of the
numpy eigensolvers used as oracles in the tests.  Two kernels run it.

hermitian_eig, the only one that returns eigenvectors, serves every
single matrix at every dimension.  It rotates rows and columns kept as
Python lists of native complex numbers.  Up to d ~ 30 that beats rotating
numpy rows and columns by slicing (5x faster at d = 4, 2.6x at d = 12, 2x
at d = 16); beyond, it costs more, 1.4x the sliced rotations' time at
d = 48 and about 2x at d = 64, where a solve needing thousands of
eigendecompositions is impractical with either.

_eigvals_stack computes only eigenvalues, of an (n, d, d) stack, and
applies each rotation to all n matrices at once with numpy; certify_forward
screens its sampled mixture pairs with it, its only caller.  Every
rotation pays numpy's per-call overhead, so the stack kernel loses on
small stacks and wins on large ones.  Against a loop of hermitian_eig at
d = 2-16 it ran at 0.14-0.35x that speed for n = 1, broke even at
n = 4-8 and was 7-24x faster at n = 100 (2-core machine, Python 3.11.7,
numpy 2.4.6).

Validating a loaded state or measurement needs no spectrum, only a proof
that no eigenvalue lies below a floor.  states._lowest_above gives one by
a shifted Cholesky factorization, and screen_densities and
screen_povm_element use it; hermitian_eig decomposes only the matrices
the proof cannot clear, in validate_density and validate_povm_element.

Both kernels scale a matrix with an entry above 2^500 down by an exact
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


def _eigvals_stack(stack) -> np.ndarray:
    """Eigenvalues of every matrix of an (n, d, d) Hermitian stack, shape (n, d).

    The batched, eigenvalue-only twin of hermitian_eig: each matrix passes
    the same Hermiticity gate, scaling and symmetrization and gets its own
    threshold and skip level; the sweeps visit (p, q) in the same cyclic
    order, with each rotation applied to the whole stack at once, and more
    than 100 sweeps raises NoConvergenceError.  A matrix that is converged,
    or whose (p, q) entry is at or below its skip level, gets the identity
    rotation (c = 1, s = 0, phase = 1), which leaves every entry as it was
    up to the sign of a zero, so row k of the result does not depend on the
    rest of the stack.  Each row is sorted ascending.  Its rounding differs
    from hermitian_eig's (about 1e-15 apart), so no caller may mix the two
    kernels' outputs in one result.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ValueError(f"expected an (n, d, d) stack, got shape {a.shape}")
    adjoint = a.conj().transpose(0, 2, 1)
    asym = np.abs(a - adjoint).max(axis=(1, 2))
    bad = np.flatnonzero(~(asym <= HERMITICITY_TOL))
    if bad.size:
        k = bad[0]
        raise NotHermitianError(
            f"matrix {k}: max entry asymmetry {asym[k]:.3e} exceeds tolerance "
            f"{HERMITICITY_TOL:.1e}"
        )
    exponent = np.zeros((a.shape[0], 1), dtype=np.int32)
    # Per-matrix maxima cost more than one over the stack; few stacks need them.
    if np.abs(a).max() > _SCALE_ABOVE:
        big = np.abs(a).max(axis=(1, 2))[:, None]
        exponent = np.where(big > _SCALE_ABOVE, np.frexp(big)[1], 0)
        scale = np.ldexp(1.0, -exponent)[:, :, None]
        a = a * scale
        adjoint = adjoint * scale
    h = (a + adjoint) / 2.0
    n = h.shape[1]
    threshold = _OFFDIAG_REL_TOL * np.sqrt((h.real ** 2 + h.imag ** 2).sum(axis=(1, 2)))
    skip = threshold / max(n, 2)
    limit = threshold * threshold
    off = ~np.eye(n, dtype=bool)

    def offdiag_sq() -> np.ndarray:
        # Summed over the off-diagonal entries themselves, as in _jacobi.
        return (h.real[:, off] ** 2 + h.imag[:, off] ** 2).sum(axis=1)

    for _ in range(_MAX_SWEEPS):
        active = offdiag_sq() > limit
        if not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = h[:, p, q]
                absb = np.hypot(b.real, b.imag)
                rot = active & (absb > skip)
                if not rot.any():
                    continue
                # Copies: h's diagonal views change as the rows rotate.
                app = h[:, p, p].real.copy()
                aqq = h[:, q, q].real.copy()
                # Masked matrices divide by 1, never by a zero |b|.
                safe = np.where(rot, absb, 1.0)
                phase = np.where(rot, b / safe, 1.0)
                tau = (aqq - app) / (2.0 * safe)
                # _rotation_params' two branches as sign / (|tau| + root).
                root = np.sqrt(tau * tau + 1.0)
                t = np.where(rot, np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + root), 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cc = c[:, None]
                sc = s[:, None]
                row_p = h[:, p, :]
                row_q = h[:, q, :]
                new_p = cc * row_p - (s * phase)[:, None] * row_q
                h[:, q, :] = sc * row_p + (c * phase)[:, None] * row_q
                h[:, p, :] = new_p
                conj_phase = phase.conj()
                col_p = h[:, :, p]
                col_q = h[:, :, q]
                new_p = cc * col_p - (s * conj_phase)[:, None] * col_q
                h[:, :, q] = sc * col_p + (c * conj_phase)[:, None] * col_q
                h[:, :, p] = new_p
                h[rot, p, q] = 0.0
                h[rot, q, p] = 0.0
                shift = t * absb
                h[:, p, p] = app - shift
                h[:, q, q] = aqq + shift
    else:
        if (offdiag_sq() > limit).any():
            raise NoConvergenceError(
                f"off-diagonal norm above its threshold after {_MAX_SWEEPS} sweeps"
            )
    return np.ldexp(np.sort(h.diagonal(axis1=1, axis2=2).real, axis=1), exponent)


def positive_part_projector(h) -> np.ndarray:
    """Projector onto the eigenspaces of `h` with eigenvalue > POSITIVE_CUTOFF.

    Maximizes Tr(P H) over all projectors; Tr(P H) equals the sum of the
    eigenvalues above the cutoff.
    """
    dec = hermitian_eig(h)
    cols = dec.eigenvectors[:, dec.eigenvalues > POSITIVE_CUTOFF]
    return cols @ cols.conj().T
