"""Self-contained dense Hermitian linear algebra.

Matrices are numpy arrays of complex128, shape (d, d), row-major.  The
eigensolver, hermitian_eig, reduces the matrix to a real symmetric
tridiagonal one by Householder reflectors and a diagonal of phases
(Golub & Van Loan, Matrix Computations, 8.3), then diagonalizes that by
implicit QL with Wilkinson shifts: the algorithm class of LAPACK's zheev,
and so the same backward-error bound, eigenvalues within p(d) u ||H||_2
of the exact ones (LAPACK Users' Guide, 3rd ed., section 4.7).  Every
eigenvalue behind a number that the solver, certify or the CLI reports
comes from it, so none rests on the numpy eigensolvers used as oracles
in the tests.  numpy and LAPACK serve only where their output is not
reported: certify_forward ranks its sampled trials with weights from
numpy's log and distances from numpy's eigvalsh, and recomputes the
closest ones here, from their stream weights (math.log), so its reported
bytes depend on neither; solve_saddle chooses each cut from numpy's eigh
of its query and recomputes here the distance of every query that could
lower the upper bound, so every reported upper bound is a value of this
kernel; and the LP master (_master.py) updates its tableau with numpy
products to choose weights that the solver then evaluates exactly.
The grid oracles (oracles.py) use eigvalsh on purpose, as a reference
independent of this module.

The kernel runs in pure Python, on lists of native complex and float
numbers, so that its bits depend on neither the CPU's vector extensions,
which select numpy's loops, nor the BLAS build, which orders the sums of
matrix products.  Its cost grows as d^3 for the reduction and d^2 for the
QL iteration.  Eigenvalues only, best of 7 repeats, two runs (2-core
shared machine, Python 3.11.7):

        d    time
        2    17-18 us
        4    52 us
        9    0.23 ms
       12    0.44-0.52 ms
       16    0.72-0.76 ms
       32    4.0-4.2 ms

Eigenvectors are built only when read, from the kernel's log of
reflectors, phases and rotations (0.35 ms more at d = 9, 1.5 ms at
d = 16).

Validating a state or measurement needs no spectrum, only a proof that
no eigenvalue lies below a floor; states.screen_densities documents the
proof and its branches.

hermitian_eig scales a matrix with a real or imaginary part above 2^500,
or a nonzero one with every part below 2^-500, by an exact power of two
before reducing it, and its eigenvalues back, so that no norm overflows
and the largest entry is never subnormal.  The parts, unlike the moduli,
are finite for every finite matrix; an eigenvalue past the largest float
comes back infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

import numpy as np

from .errors import BadMatrixError, NoConvergenceError, NotHermitianError

# Max entry asymmetry tolerated before a matrix is rejected as non-Hermitian.
HERMITICITY_TOL = 1e-9
# hermitian_eig's eigenvalues lie within EIGENVALUE_TOL * max(1, ||H||_F) of
# the exact ones of H = (M + M^dag) / 2, as the tests pin; the screens read it.
EIGENVALUE_TOL = 1e-13
# Eigenvalues strictly above this cutoff count as the "positive part";
# kernel directions are excluded for determinism.
POSITIVE_CUTOFF = 1e-10
# Unit roundoff: the QL iteration deflates couplings at this relative size.
_U = 2.0 ** -53
# The smallest normal number.  A reflector or phase is computed from a
# power-of-two multiple of a vector below it, whose ratios keep 53 bits.
_NORMAL = 2.0 ** -1022
# QL iterations allowed in all, per unit of dimension (LAPACK: 30 n).
_QL_ITERATIONS_PER_DIM = 30
# A matrix with a real or imaginary part above _SCALE_ABOVE, or a nonzero
# one whose parts are all below _SCALE_BELOW, is decomposed scaled by 2^-e,
# e the binary exponent of its largest part, so that its largest part lies
# in [1/2, 1), and its eigenvalues are scaled back by 2^e.  Above, the
# squares in a norm could overflow; below, they underflow, and subnormal
# entries carry too few bits for the kernel's reflectors and rotations to
# stay unitary (unscaled, a 3 x 3 of equal entries 2^-1070 gave
# eigenvectors 1.8 from orthonormal).  Scaling by a power of two is exact for every
# entry that stays normal, and the kernel commutes with it.
_SCALE_ABOVE = 2.0 ** 500
_SCALE_BELOW = 2.0 ** -500


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues sorted ascending; eigenvector k is ``eigenvectors[:, k]``,
    built on first read from the kernel's log (_replay) and kept."""

    eigenvalues: np.ndarray
    _log: tuple = field(repr=False)
    _order: np.ndarray = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        vt = _replay(self.dim, self._log)
        return np.array([vt[k] for k in self._order], dtype=np.complex128).T.copy()

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array (C order), without copying if possible.

    Anything else raises BadMatrixError.
    """
    try:
        a = np.asarray(m, dtype=np.complex128, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadMatrixError(f"expected a square matrix, got {type(m).__name__}: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise BadMatrixError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m) -> np.ndarray:
    """Return the input as a matrix, raising NotHermitianError beyond HERMITICITY_TOL."""
    a = as_matrix(m)
    # An infinite entry, or an asymmetry past the largest float, makes it NaN
    # or infinite: the error says so, with no warning.
    with np.errstate(invalid="ignore", over="ignore"):
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


def _polar(z: complex):
    """|z| and z / |z| (1 for z = 0), the latter of modulus 1 to rounding even
    where z is subnormal and |z| has lost precision."""
    size = math.hypot(z.real, z.imag)
    if size >= _NORMAL:
        return size, z / size
    if not size:
        return size, 1 + 0j
    shift = -math.frexp(size)[1]
    z = complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
    return size, z / math.hypot(z.real, z.imag)


def _tridiagonalize(h: list):
    """Householder reduction of a Hermitian matrix, rows as Python lists.

    Step k reflects column k below the diagonal, x, onto a multiple of the
    first unit vector by the Hermitian reflector I - tau v v^dag (v[0] = 1,
    tau = 1 + |x_0| / ||x|| in [1, 2]), applied to the trailing block from
    both sides as one rank-two update (Golub & Van Loan 8.3.1).  The new
    off-diagonal entry is alpha = -||x|| x_0 / |x_0|; a column whose tail
    below x_0 is zero is not reflected, and alpha = x_0.  Only |alpha|
    enters the real tridiagonal matrix, and alpha's phase goes into a
    diagonal unitary D, with D_0 = 1 and D_k+1 = D_k alpha / |alpha|, that
    makes it real.  Norms are math.hypot's, which scales against overflow
    and underflow.

    Returns the diagonal, the off-diagonal (the last entry a zero pad), the
    reflectors as (k, tau, v), and D.
    """
    n = len(h)
    diag = [0.0] * n
    off = [0.0] * n
    reflectors = []
    phases = [1 + 0j] * n
    phase = 1 + 0j
    for k in range(n - 1):
        diag[k] = h[k][k].real
        below = h[k + 1:]
        x = [row[k] for row in below]
        size0, unit = _polar(x[0])
        if any(x[1:]):
            norm = math.hypot(*[part for z in x for part in (z.real, z.imag)])
            off[k] = norm
            if norm < _NORMAL:
                # v and tau are those of any multiple of x: take one whose
                # norm is normal, so that v and tau keep full precision.
                shift = -math.frexp(norm)[1]
                x = [complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in x]
                norm = math.hypot(*[part for z in x for part in (z.real, z.imag)])
                size0, unit = _polar(x[0])
            v0 = unit * (size0 + norm)
            v = [1.0] + [z / v0 for z in x[1:]]
            tau = 1.0 + size0 / norm
            vc = [z.conjugate() for z in v]
            # B <- P B P = B - v w^dag - w v^dag, with p = tau B v and
            # w = p - (tau / 2)(v^dag p) v.
            block = [row[k + 1:] for row in below]
            p = [tau * sum(map(mul, row, v)) for row in block]
            half = 0.5 * tau * sum(map(mul, vc, p)).real
            w = [pi - half * vi for pi, vi in zip(p, v)]
            wc = [z.conjugate() for z in w]
            for row, b, vi, wi in zip(below, block, v, w):
                row[k + 1:] = [a - vi * s - wi * t for a, s, t in zip(b, wc, vc)]
            reflectors.append((k, tau, v))
            unit = -unit
        else:
            off[k] = size0
        phase = phase * unit
        phases[k + 1] = phase
    diag[n - 1] = h[n - 1][n - 1].real
    return diag, off, reflectors, phases


def _ql(d: list, e: list) -> list:
    """Implicit QL with Wilkinson shifts on a real symmetric tridiagonal.

    d is the diagonal and e[i] the coupling of i and i + 1 (e[n-1] = 0);
    both are overwritten, and d ends as the eigenvalues.  The algorithm is
    EISPACK's imtql2 (as in Numerical Recipes' tqli): each iteration chases
    one shifted bulge up an unreduced block by plane rotations.  A coupling
    deflates once |e_i| <= u (|d_i| + |d_i+1|), u = 2^-53, or once it is at
    most u (max_i |d_i| + max_i |e_i|) of the matrix as given (the norm
    test of EISPACK's tql2).  That floor is what a backward-stable solver
    may drop, and it deflates subnormal couplings; without it, a graded
    matrix (couplings of 5e-9 and 1e-224 in one 5 x 5) lost its bulge to
    underflow halfway up and iterated without end.  Returns the rotations
    as (i, c, s), in order.  More than _QL_ITERATIONS_PER_DIM * n
    iterations in all raise NoConvergenceError.
    """
    n = len(d)
    rotations = []
    budget = _QL_ITERATIONS_PER_DIM * n
    floor = _U * max(map(abs, d)) + _U * max(map(abs, e))
    for lo in range(n):
        while True:
            m = lo
            while m < n - 1:
                em = abs(e[m])
                if em <= floor or em <= _U * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == lo:
                break
            if budget <= 0:
                raise NoConvergenceError(
                    f"QL iteration did not converge in {_QL_ITERATIONS_PER_DIM * n} iterations"
                )
            budget -= 1
            # Shift: the eigenvalue of the leading 2 x 2 closer to d[lo].
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # The bulge underflowed: split here and start again.
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                rotations.append((i, c, s))
            else:
                d[lo] -= p
                e[lo] = g
                e[m] = 0.0
    return rotations


def _householder_ql(hmat: np.ndarray):
    """Eigenvalues of an exactly Hermitian matrix, in the kernel's order, and the log
    (reflectors, phases, rotations) that _replay turns into eigenvectors."""
    diag, off, reflectors, phases = _tridiagonalize(hmat.tolist())
    rotations = _ql(diag, off)
    return diag, (reflectors, phases, rotations)


def _replay(n: int, log) -> list:
    """The eigenvectors, one list per eigenvector, in the kernel's order.

    V = Q D Z: the QL rotations applied to the identity give Z, its rows
    are scaled by D's phases, and the reflectors are applied last to first
    (Q = P_0 P_1 ...).  Each is applied to the rows of V^T.
    """
    reflectors, phases, rotations = log
    vt = [[0.0] * n for _ in range(n)]
    for i in range(n):
        vt[i][i] = 1.0
    for i, c, s in rotations:
        a, b = vt[i], vt[i + 1]
        vt[i] = [c * x - s * y for x, y in zip(a, b)]
        vt[i + 1] = [s * x + c * y for x, y in zip(a, b)]
    vt = [[x * ph for x, ph in zip(row, phases)] for row in vt]
    for k, tau, v in reversed(reflectors):
        vc = [z.conjugate() for z in v]
        for row in vt:
            tail = row[k + 1:]
            t = tau * sum(map(mul, tail, vc))
            row[k + 1:] = [x - t * y for x, y in zip(tail, v)]
    return vt


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by Householder reduction and implicit QL.

    The input is checked against HERMITICITY_TOL, the package's one
    Hermiticity gate (the validators leave it to this call), and
    symmetrized to (M + M^dag)/2; a matrix whose largest real or imaginary
    part is above 2^500 or below 2^-500 (and not zero) is first scaled by
    an exact power of two, and its eigenvalues back.  More than 30 n QL
    iterations raise NoConvergenceError.  Output is deterministic for identical input bits:
    eigenvalues ascending, ties kept in the kernel's output order.
    """
    a = check_hermitian(m)
    # The largest real or imaginary part, finite where a modulus could overflow.
    big = float(np.abs(a.view(np.float64)).max())
    exponent = math.frexp(big)[1] if big > _SCALE_ABOVE or 0.0 < big < _SCALE_BELOW else 0
    if exponent:
        a = np.ldexp(a.view(np.float64), -exponent).view(np.complex128)
    h = (a + a.conj().T) / 2.0
    eigenvalues, log = _householder_ql(h)
    eigenvalues = np.array(eigenvalues)
    if exponent:
        with np.errstate(over="ignore"):  # past the largest float: infinite
            eigenvalues = np.ldexp(eigenvalues, exponent)
    order = np.argsort(eigenvalues, kind="stable")
    return EigenDecomposition(np.ascontiguousarray(eigenvalues[order]), log, order)


def positive_part_projector(h) -> np.ndarray:
    """Projector onto the eigenspaces of `h` with eigenvalue > POSITIVE_CUTOFF.

    Maximizes Tr(P H) over all projectors; Tr(P H) equals the sum of the
    eigenvalues above the cutoff.
    """
    dec = hermitian_eig(h)
    cols = dec.eigenvectors[:, dec.eigenvalues > POSITIVE_CUTOFF]
    return cols @ cols.conj().T
