"""Two-state distinguishability primitives and separation gaps.

Convention used throughout the package: trace_distance returns the HALF
trace norm, (1/2)||rho - sigma||_1.  That makes it directly comparable to
expectation gaps: for states of equal trace, the best achievable
Tr(T rho) - Tr(T sigma) over POVM elements T, max_pair_gap(rho, sigma),
equals trace_distance(rho, sigma), with no factor of 2 anywhere at the
call sites.  A measurement separates two sets by margin eps exactly when
every mixture pair of the two sets keeps max_pair_gap >= eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfigError,
    DimensionMismatchError,
    GapOutOfBandError,
    ImaginaryResidueError,
    as_real,
)
from .hermitian import HERMITICITY_TOL, hermitian_eig, positive_part_projector
from .states import EIG_FLOOR, POVM_CEILING, TRACE_TOL, DensityMatrix, PovmElement, StateSet

# The gap checks admit what validation admits.  Let delta be the largest of
# the validators' slacks (each 1e-9), and T and rho a validated measurement
# and state of dimension d.  In the eigenbasis of rho's Hermitian part
# (eigenvalues >= -delta, summing to within delta of 1), Tr(T rho) =
# sum_k lambda_k <k|T|k> with each <k|T|k> in [-delta, 1 + delta].  So, to
# first order in delta, Re Tr(T rho) lies in [-d delta, 1 + (d + 1) delta]
# and every |pair gap| <= 1 + (2d + 1) delta.  Stored matrices keep the
# anti-Hermitian part that the Hermiticity gate admits, entries up to
# delta / 2; with ||.||_1 <= sqrt(d) ||.||_F, |Im Tr(T rho)| <= (d^1.5 + d)
# delta / 2.  One more delta per expectation is headroom for second-order
# terms and rounding: a trace of d^2 products errs by at most about
# 2 d^2.5 u (u = 2^-53), below 1e-9 up to d = 400.
_DELTA = max(HERMITICITY_TOL, -EIG_FLOOR, TRACE_TOL, POVM_CEILING - 1.0)


@dataclass(frozen=True, eq=False)
class GapReport:
    """Per-pair expectation gaps of one measurement against two sets.

    min_gap is the smallest entry of per_pair_gaps; argmin_pair is its
    (row, column) index, lexicographically first on exact ties.
    """

    min_gap: float
    argmin_pair: tuple[int, int]
    per_pair_gaps: np.ndarray

    def __post_init__(self):
        gaps = np.array(self.per_pair_gaps, dtype=np.float64)
        gaps.setflags(write=False)
        object.__setattr__(self, "per_pair_gaps", gaps)


def _require_same_dim(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"mixed dimensions {dims}")


def _symmetrized_difference(rho: DensityMatrix, sigma: DensityMatrix) -> np.ndarray:
    _require_same_dim(rho.dim, sigma.dim)
    # Each input is Hermitian within 1e-9; the difference can carry twice
    # that asymmetry, so re-symmetrize before the strict Hermiticity gate.
    diff = rho.matrix - sigma.matrix
    return (diff + diff.conj().T) / 2.0


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half trace norm (1/2)||rho - sigma||_1 = (1/2) sum |eig(rho - sigma)|.

    Symmetric in its arguments, zero exactly when the states coincide, and
    equal to the largest achievable expectation gap between the two states.
    """
    lam = hermitian_eig(_symmetrized_difference(rho, sigma)).eigenvalues
    return float(0.5 * np.abs(lam).sum())


def max_pair_gap(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Largest Tr(T rho) - Tr(T sigma) over POVM elements T.

    That is the sum of the positive eigenvalues of rho - sigma, and it
    bounds from above the margin of every measurement separating sets that
    hold rho and sigma.  It is trace_distance(rho, sigma) + Tr(rho -
    sigma) / 2, so the two agree only for states of equal trace, and
    validation lets a state's trace stray 1e-9 from 1.
    """
    lam = hermitian_eig(_symmetrized_difference(rho, sigma)).eigenvalues
    return float(np.maximum(lam, 0.0).sum())


def helstrom_measurement(rho: DensityMatrix, sigma: DensityMatrix) -> PovmElement:
    """Projector onto the positive eigenspace of rho - sigma.

    Achieves pair_gap(T, rho, sigma) == trace_distance(rho, sigma); a
    projector is a valid POVM element by construction.
    """
    return PovmElement(positive_part_projector(_symmetrized_difference(rho, sigma)))


def _check_residue(residue: float, d: int, expectations: int = 1) -> None:
    # residue is the imaginary part of a sum of `expectations` expectations.
    if not residue <= expectations * (d ** 1.5 + d + 2) * _DELTA / 2.0:
        raise ImaginaryResidueError(f"imaginary residue {residue:.3e}")


def _check_band(largest: float, d: int) -> None:
    if not largest <= 1.0 + (2 * d + 2) * _DELTA:
        raise GapOutOfBandError(f"gap magnitude {largest:.12g} outside the [-1, 1] band")


def pair_gap(t: PovmElement, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Re(Tr(T rho) - Tr(T sigma)), with the same checks as separation_gap."""
    _require_same_dim(t.dim, rho.dim, sigma.dim)
    value = complex(np.einsum("ab,ba->", t.matrix, rho.matrix - sigma.matrix))
    _check_residue(abs(value.imag), t.dim, expectations=2)
    _check_band(abs(value.real), t.dim)
    return value.real


def _expectations(t: PovmElement, set0: StateSet, set1: StateSet):
    """Re Tr(T rho_i) over set0 and Re Tr(T sigma_j) over set1."""
    _require_same_dim(t.dim, set0.dim, set1.dim)
    exp0 = np.einsum("ab,iba->i", t.matrix, set0.stack())
    exp1 = np.einsum("ab,jba->j", t.matrix, set1.stack())
    # np.maximum, unlike max(), keeps a NaN from either side.
    _check_residue(float(np.maximum(np.abs(exp0.imag).max(), np.abs(exp1.imag).max())), t.dim)
    return exp0.real, exp1.real


def separation_gap(t: PovmElement, set0: StateSet, set1: StateSet) -> GapReport:
    """Expectation gaps of T for every pair in set0 x set1, and their minimum."""
    exp0, exp1 = _expectations(t, set0, set1)
    gaps = exp0[:, None] - exp1[None, :]
    _check_band(float(np.abs(gaps).max()), t.dim)
    flat = int(np.argmin(gaps))  # first minimum in C order = lexicographic (i, j)
    i, j = divmod(flat, gaps.shape[1])
    return GapReport(min_gap=float(gaps[i, j]), argmin_pair=(i, j), per_pair_gaps=gaps)


def min_separation_gap(t: PovmElement, set0: StateSet, set1: StateSet) -> float:
    """Worst pair gap of T, min_i Tr(T rho_i) - max_j Tr(T sigma_j).

    Equal bit for bit to separation_gap(t, set0, set1).min_gap, with the
    same checks, in O(|S0| + |S1|): rounded subtraction is monotone in each
    operand, so the extreme pair gaps are the gaps of the extreme
    expectations.
    """
    exp0, exp1 = _expectations(t, set0, set1)
    lowest = exp0.min() - exp1.max()
    _check_band(float(np.maximum(exp0.max() - exp1.min(), -lowest)), t.dim)
    return float(lowest)


def is_separating(t: PovmElement, set0: StateSet, set1: StateSet, eps: float) -> bool:
    """Whether T attains margin eps: min pair gap >= eps - 1e-12.

    eps must be a positive real number; anything else, NaN, a bool or a
    string included, raises BadConfigError.
    """
    eps = as_real(eps, "eps")
    if not eps > 0.0:
        raise BadConfigError(f"eps must be positive, got {eps}")
    return min_separation_gap(t, set0, set1) >= eps - 1e-12
