"""Domain types: density matrices, POVM elements, state sets, mixtures.

Validation tolerances are loose enough to admit matrices round-tripped
through decimal serialization (1e-9 spectral and trace slack) while
rejecting genuinely invalid inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._rng import SplitMix64
from .errors import (
    BadRankError,
    BadTraceError,
    BadWeightsError,
    DimensionMismatchError,
    EmptySetError,
    LengthMismatchError,
    NotPositiveError,
    SpectrumOutOfRangeError,
    StatesepError,
)
from .hermitian import HERMITICITY_TOL, _eigvals_stack, check_hermitian, hermitian_eig, trace

EIG_FLOOR = -1e-9
TRACE_TOL = 1e-9
TRACE_IMAG_TOL = 1e-12
POVM_CEILING = 1.0 + 1e-9
WEIGHT_SUM_TOL = 1e-9
# Fewest matrices screen_densities hands to the stack kernel (see there).
SCREEN_MIN_STATES = 10


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    Construct through validate_density, which checks a matrix from outside
    the program, or through an operation that guarantees the invariants
    analytically and so checks nothing: mixture_state (a convex combination
    of states) or random_density (G G^dag / Tr).  The solver's convex
    combination of projectors builds its PovmElement the same way,
    unchecked.  The dataclass itself only freezes the underlying array.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PovmElement:
    """Hermitian operator with spectrum in [0, 1] (a single measurement effect)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateSet:
    """Ordered, non-empty list of density matrices over a common dimension."""

    dim: int
    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...] | None = field(default=None)
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if len(states) == 0:
            raise EmptySetError("state set must contain at least one state")
        for k, rho in enumerate(states):
            if rho.dim != self.dim:
                raise DimensionMismatchError(
                    f"state {k} has dimension {rho.dim}, set dimension is {self.dim}"
                )
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(states):
                raise LengthMismatchError(
                    f"{len(labels)} labels for {len(states)} states"
                )
        object.__setattr__(self, "_stack", _freeze(np.stack([r.matrix for r in states])))

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def from_matrices(cls, matrices, labels=None) -> "StateSet":
        """Validate raw matrices and assemble a set (all must share one dim).

        The matrices that screen_densities passes are wrapped as they are;
        every other one goes through validate_density, in order, so the
        set, or the first error, is the one a loop of validate_density
        gives.
        """
        matrices = list(matrices)
        passed = screen_densities(matrices)
        states = tuple(DensityMatrix(m) if ok else validate_density(m)
                       for m, ok in zip(matrices, passed))
        if not states:
            raise EmptySetError("state set must contain at least one state")
        return cls(dim=states[0].dim, states=states,
                   labels=tuple(labels) if labels is not None else None)

    def stack(self) -> np.ndarray:
        """All states as one (len, dim, dim) array, in set order.

        The array is built once, with the set, and every call returns that
        same read-only array: callers share it and must not write to it.
        """
        return self._stack


def validate_density(m) -> DensityMatrix:
    """Check Hermiticity, positivity, and unit trace; return the typed state.

    Checks run in that order and the first failure is reported:
    NotHermitianError, then NotPositiveError (minimum eigenvalue quoted),
    then BadTraceError (deviation quoted).
    """
    a = check_hermitian(m)
    dec = hermitian_eig(a)
    lo = float(dec.eigenvalues[0])
    if lo < EIG_FLOOR:
        raise NotPositiveError(f"minimum eigenvalue {lo:.3e} below {EIG_FLOOR:.1e}")
    tr = trace(a)
    if abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_IMAG_TOL:
        raise BadTraceError(
            f"trace {tr.real:.12g}{tr.imag:+.3e}j deviates from 1 "
            f"(re tol {TRACE_TOL:.1e}, im tol {TRACE_IMAG_TOL:.1e})"
        )
    return DensityMatrix(a)


def screen_densities(matrices) -> np.ndarray:
    """Mask of the matrices, an (n, d, d) stack, that certainly pass validate_density.

    validate_density's three checks run on the whole stack at once, the
    spectra in one call of the stack kernel _eigvals_stack.  A matrix is
    passed only when each check clears its threshold by a rounding slack:
    asymmetry up to HERMITICITY_TOL * (1 - 2^-50); minimum eigenvalue at
    least EIG_FLOOR + 1e-13 * max(1, ||M||_F), the bound within which the
    stack kernel and hermitian_eig agree; and the trace's real and
    imaginary deviations inside TRACE_TOL and TRACE_IMAG_TOL by
    d * 2^-51 * sum_i |M_ii|, more than two orders of summing the
    diagonal can differ by.  Every other matrix is left to validate_density,
    which alone words an error: a non-finite or non-Hermitian matrix is
    zeroed before the kernel call and not passed, and if the kernel raises,
    or the input is not a stack of square matrices, nothing is passed.

    Below SCREEN_MIN_STATES matrices nothing is passed either, because a
    loop of validate_density is faster there.  Its time over the screen's
    (screen plus wrapping, all states valid, median of 15-400 calls; 2-core
    machine, Python 3.11.7, numpy 2.4.6), so above 1 the screen wins:

        n        1     4     8    10    12    16    64
        d = 2  0.28  1.08  2.00  2.52  2.85  3.78  8.27
        d = 4  0.15  0.46  0.87  1.00  1.25  1.61  4.41
        d = 8  0.25  0.42  0.74  1.13  1.23  1.67  4.13
        d = 16 0.42  0.99  1.61  1.97  2.34

    At d = 4 one state takes 0.23 ms in the loop and 1.60 ms in the screen.
    """
    passed = np.zeros(len(matrices), dtype=bool)
    if len(matrices) < SCREEN_MIN_STATES:
        return passed
    try:
        a = np.asarray(matrices, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        return passed
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        return passed
    finite = np.isfinite(a).all(axis=(1, 2))
    a = np.where(finite[:, None, None], a, 0.0)
    asym = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    hermitian = finite & (asym <= HERMITICITY_TOL * (1.0 - 2.0 ** -50))
    a = np.where(hermitian[:, None, None], a, 0.0)
    try:
        lowest = _eigvals_stack(a)[:, 0]
    except StatesepError:
        return passed
    # A norm or trace that overflows is infinite, and its matrix not passed.
    with np.errstate(over="ignore"):
        norm = np.sqrt((a.real ** 2 + a.imag ** 2).sum(axis=(1, 2)))
        diag = a.diagonal(axis1=1, axis2=2)
        tr = diag.sum(axis=1)
        tr_slack = a.shape[1] * 2.0 ** -51 * np.abs(diag).sum(axis=1)
        return (
            hermitian
            & (lowest >= EIG_FLOOR + 1e-13 * np.maximum(1.0, norm))
            & (np.abs(tr.real - 1.0) <= TRACE_TOL - tr_slack)
            & (np.abs(tr.imag) <= TRACE_IMAG_TOL - tr_slack)
        )


def validate_povm_element(m) -> PovmElement:
    """Check Hermiticity and spectrum within [-1e-9, 1 + 1e-9]."""
    a = check_hermitian(m)
    dec = hermitian_eig(a)
    lo = float(dec.eigenvalues[0])
    hi = float(dec.eigenvalues[-1])
    if lo < EIG_FLOOR or hi > POVM_CEILING:
        bad = lo if lo < EIG_FLOOR else hi
        raise SpectrumOutOfRangeError(
            f"eigenvalue {bad:.12g} outside [{EIG_FLOOR:.1e}, {POVM_CEILING!r}]"
        )
    return PovmElement(a)


def as_mixture_weights(weights, size: int | None = None) -> np.ndarray:
    """Coerce to a probability vector; enforce simplex membership.

    Raises LengthMismatchError when `size` is given and differs, and
    BadWeightsError for a non-finite entry (its index named), a negative
    entry, or a sum off 1 by more than 1e-9.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise BadWeightsError(f"weights must be a flat vector, got shape {w.shape}")
    if size is not None and w.shape[0] != size:
        raise LengthMismatchError(f"{w.shape[0]} weights for {size} states")
    if w.shape[0] == 0:
        raise BadWeightsError("weight vector is empty")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise BadWeightsError(f"weight {bad[0]} is {w[bad[0]]}, not a finite number")
    if float(w.min()) < 0.0:
        raise BadWeightsError(f"negative weight {float(w.min()):.3e}")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise BadWeightsError(f"weights sum to {total:.12g}, expected 1")
    return w


def mixture_state(mu, state_set: StateSet) -> DensityMatrix:
    """Convex combination sum_i mu_i rho_i of the set under distribution mu.

    Only mu is checked (as_mixture_weights).  A convex combination of
    states is a state analytically, so the result is not re-validated,
    which would cost an eigendecomposition per mixture.
    """
    w = as_mixture_weights(mu, size=len(state_set))
    return DensityMatrix(np.einsum("i,iab->ab", w, state_set.stack()))


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random state: G G^dag / Tr(G G^dag) with G a dim x rank
    standard-complex-normal matrix.

    G is filled row-major, the real then the imaginary part of each entry,
    from the SplitMix64 + Box-Muller stream documented in ``_rng``; equal
    seeds give bit-identical output.  G G^dag / Tr is a state by
    construction, so the result is not validated.  With rank == dim it is
    full rank with overwhelming probability; a near-singular draw is
    flagged with a warning rather than rejected, at the cost of one
    eigendecomposition, the only one this function spends.
    """
    if dim < 1:
        raise BadRankError(f"dimension must be >= 1, got {dim}")
    if not 1 <= rank <= dim:
        raise BadRankError(f"rank {rank} outside 1..{dim}")
    rng = SplitMix64(seed)
    g = np.empty((dim, rank), dtype=np.complex128)
    for i in range(dim):
        for j in range(rank):
            re, im = rng.normal_pair()
            g[i, j] = complex(re, im)
    gram = g @ g.conj().T
    rho = gram / gram.diagonal().real.sum()
    if rank == dim:
        lo = float(hermitian_eig(rho).eigenvalues[0])
        if lo <= 1e-12:
            warnings.warn(
                f"full-rank draw came out near-singular (min eigenvalue {lo:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
    return DensityMatrix(rho)
