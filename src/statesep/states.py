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
)
from .hermitian import check_hermitian, hermitian_eig, trace

EIG_FLOOR = -1e-9
TRACE_TOL = 1e-9
TRACE_IMAG_TOL = 1e-12
POVM_CEILING = 1.0 + 1e-9
WEIGHT_SUM_TOL = 1e-9


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
        """Validate raw matrices and assemble a set (all must share one dim)."""
        states = tuple(validate_density(m) for m in matrices)
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
