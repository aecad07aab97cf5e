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
    BadConfigError,
    BadRankError,
    BadTraceError,
    BadWeightsError,
    DimensionMismatchError,
    EmptySetError,
    LengthMismatchError,
    NotPositiveError,
    SpectrumOutOfRangeError,
    StatesepError,
    as_int,
)
from .hermitian import (_SCALE_ABOVE, EIGENVALUE_TOL, HERMITICITY_TOL, as_matrix,
                        hermitian_eig, trace)

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
class _Operator:
    """A frozen (d, d) complex128 matrix; the dataclass checks nothing else."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class DensityMatrix(_Operator):
    """Hermitian, positive semidefinite, unit-trace operator.

    Construct through validate_density, which checks a matrix from outside
    the program, or through an operation that guarantees the invariants
    analytically and so checks nothing: mixture_state (a convex combination
    of states) or random_density (G G^dag / Tr).  The solver's convex
    combination of projectors builds its PovmElement the same way,
    unchecked.  The dataclass itself only freezes the underlying array.
    """


class PovmElement(_Operator):
    """Hermitian operator with spectrum in [0, 1] (a single measurement effect)."""


@dataclass(frozen=True)
class StateSet:
    """Ordered, non-empty list of density matrices over a common dimension."""

    dim: int
    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...] | None = field(default=None)
    # Built by the first stack() call, unless from_matrices hands over the
    # frozen stack its states are views of.
    _stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def from_matrices(cls, matrices, labels=None) -> "StateSet":
        """Validate raw matrices and assemble a set (all must share one dim).

        The matrices are validated by screened, in order, and the first
        invalid one's error is raised with its index prefixed ("state k:
        ..."), so the set, or the error, is that of a loop of
        validate_density.  An (n, d, d) array is screened as it is; any
        other iterable is listed first.  Matrices that form one stack are
        copied once, into the frozen stack that stack() returns, and every
        state is a read-only view of it (see screened).
        """
        matrices = matrices if isinstance(matrices, np.ndarray) else list(matrices)
        states = []
        for k, state in enumerate(screened(matrices)):
            if isinstance(state, StatesepError):
                raise type(state)(f"state {k}: {state}") from state
            states.append(state)
        if not states:
            raise EmptySetError("state set must contain at least one state")
        sset = cls(dim=states[0].dim, states=tuple(states),
                   labels=tuple(labels) if labels is not None else None)
        object.__setattr__(sset, "_stack", states[0].matrix.base)  # None unless a stack
        return sset

    def stack(self) -> np.ndarray:
        """All states as one (len, dim, dim) array, in set order.

        The array is built once, by the first call or by from_matrices, and
        every call returns that same read-only array: callers share it and
        must not write to it.
        """
        if self._stack is None:
            # Every state's matrix is complex128, so the fresh stack needs no copy.
            stack = np.stack([r.matrix for r in self.states])
            stack.setflags(write=False)
            object.__setattr__(self, "_stack", stack)
        return self._stack


def validate_density(m) -> DensityMatrix:
    """Check Hermiticity, positivity, and unit trace; return the typed state.

    Checks run in that order and the first failure is reported:
    NotHermitianError, then NotPositiveError (minimum eigenvalue quoted),
    then BadTraceError (deviation quoted).

    From d = 5 up, the matrix first goes through screen_densities, and one
    it passes is returned with no spectrum computed.  Any other is
    decomposed by hermitian_eig, whose gate raises NotHermitianError; the
    screen passes only matrices that clear all three checks, so the result
    and every error are the same either way.
    """
    a = as_matrix(m)
    # Decompose at d <= 4, where it costs less than the screen (0.066
    # against 0.074 ms a call at d = 4; at d = 5 the screen costs less,
    # 0.081 against 0.101 ms, and 0.18 against 0.78 ms at d = 16; see
    # screen_densities).  perfbench/test_tracing.py counts exactly one
    # hermitian_eig call in validate_density(np.eye(2) / 2).
    if a.shape[0] >= 5 and screen_densities(a[None])[0]:
        return DensityMatrix(a)
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


def screened(matrices):
    """Each matrix, in order, as a DensityMatrix or the StatesepError validate_density raises.

    matrices is a sequence of matrices or an (n, d, d) array.  Matrices
    that form one stack are copied once, into a frozen complex128 stack,
    and each valid one comes as a read-only view of it, uncopied (its
    matrix.base is that stack).  One screen_densities call covers them
    all; each matrix it does not pass goes through validate_density only
    when the caller asks for it, so stopping at the first error validates
    no later matrix.  Each item is what validate_density gives on its
    matrix, in value.
    """
    stack = _as_stack(matrices)
    if stack is None:
        for matrix in matrices:
            try:
                yield validate_density(matrix)
            except StatesepError as exc:
                yield exc
        return
    stack = _freeze(stack)
    for matrix, ok in zip(stack, screen_densities(stack)):
        if not ok:
            try:
                validate_density(matrix)
            except StatesepError as exc:
                yield exc
                continue
        state = object.__new__(DensityMatrix)  # past _freeze: the view stays one
        object.__setattr__(state, "matrix", matrix)
        yield state


def _lowest_above(h, floor) -> np.ndarray:
    """Mask of the matrices of an (n, d, d) stack proved to have no eigenvalue below floor.

    floor is one number or one per matrix.  A matrix passes only if it is
    exactly Hermitian (as a symmetrized (M + M^dag)/2 is), every entry is
    at most 2^500 in modulus, and a Cholesky factorization of
    h - (floor + delta) I, run column by column over the whole stack,
    completes with every pivot positive.  The matrices never mix, and a
    NaN or infinity arising in one's factorization (the root of a negative
    pivot, say) reaches one of its later pivots, which then fails.

    Why that is a proof (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Thm 10.3; Rump, BIT 46, 2006).  Let
    u = 2^-53, gamma_k = k u / (1 - k u), and B = sum_i |h_ii - floor| as
    computed, so that delta = 8 (d + 2) u B.
    - The diagonal is shifted in two roundings, by floor then by delta, so
      the matrix factored is A = h - (floor + delta) I + E, with E
      diagonal and |E_ii| <= 2.01 u B + u delta.
    - Each entry of the factor is an inner product of at most d - 1 complex
      products, subtracted in turn, then divided by a real or rooted.  A
      complex product errs by at most sqrt(2) gamma_2 < (1 + u)^3 - 1
      relative, |z|^2 by gamma_2, numpy's division by a real (a reciprocal,
      then a product) by gamma_2, a complex sum or a root by u (Higham
      Lemma 3.5).  So no term carries more than d + 1 roundings, and Thm
      10.3's argument gives R^dag R = A + dA with
      |dA| <= gamma_{d+1} |R^dag| |R| entrywise.
    - Then ||dA||_2 <= gamma_{d+1} ||R||_F^2 and ||R||_F^2 = tr(A + dA),
      so ||dA||_2 <= g tr A <= g (1 + u)(B + d delta), with
      g = gamma_{d+1} / (1 - gamma_{d+1}).
    - R^dag R is positive semidefinite, so lambda_min(h) >= floor + delta
      - ||E||_2 - ||dA||_2, which is at least floor when
      delta (1 - u - (1 + u) d g) >= (2.01 u + (1 + u) g) B, about
      (d + 3) u B.  8 (d + 2) u B is more than 5 times that for d < 10^6,
      rounding of B and delta included.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, d = h.shape[0], h.shape[1]
    ok = ((np.abs(h) <= _SCALE_ABOVE) & (h == h.conj().transpose(0, 2, 1))).all(axis=(1, 2))
    a = h.reshape(n, d * d).copy()
    diag = a[:, ::d + 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diag -= np.reshape(floor, (-1, 1))
        diag -= (8.0 * (d + 2) * 2.0 ** -53) * np.abs(diag.real).sum(axis=1, keepdims=True)
        a = a.reshape(n, d, d)
        for j in range(d - 1):
            col = a[:, j + 1:, j] / np.sqrt(a[:, j, j].real)[:, None]
            a[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :].conj()
        # Each pivot is left on the diagonal.
        return ok & (diag.real > 0.0).all(axis=1)


def _as_stack(matrices) -> np.ndarray | None:
    """The matrices as one (n, d, d) complex128 array, uncopied where they
    are one, or None.  Ragged, non-square, non-numeric and huge-integer
    input (TypeError, ValueError, OverflowError from np.asarray) is no
    stack."""
    try:
        a = np.asarray(matrices, dtype=np.complex128, order="C")
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        return None
    return a


def _screen_parts(matrices):
    """(a, h, hermitian, margin) for the screens, or None if a is no (n, d, d) stack.

    a is the input as a complex stack, and h = (M + M^dag) / 2 the matrix
    hermitian_eig decomposes.  hermitian marks the matrices within
    HERMITICITY_TOL * (1 - 2^-50) of Hermitian, all of them finite (a
    non-finite entry makes the asymmetry NaN or infinite).  margin is
    EIGENVALUE_TOL * max(1, ||M||_F), the pinned bound on how far
    hermitian_eig's eigenvalues lie from h's.
    """
    a = _as_stack(matrices)
    if a is None:
        return None
    adjoint = a.conj().transpose(0, 2, 1)
    parts = a.view(np.float64).reshape(a.shape[0], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.abs(a - adjoint).max(axis=(1, 2)) <= HERMITICITY_TOL * (1.0 - 2.0 ** -50)
        margin = EIGENVALUE_TOL * np.maximum(1.0, np.sqrt((parts * parts).sum(axis=1)))
        return a, (a + adjoint) / 2.0, hermitian, margin


def screen_densities(matrices) -> np.ndarray:
    """Mask of the matrices, an (n, d, d) stack, that certainly pass validate_density.

    validate_density's three checks run on the whole stack at once.  A
    matrix is passed only when each clears its threshold by a rounding
    slack: asymmetry up to HERMITICITY_TOL * (1 - 2^-50); no eigenvalue
    below EIG_FLOOR + EIGENVALUE_TOL * max(1, ||M||_F), proved by one shifted
    Cholesky factorization of the stack (_lowest_above), with no spectrum
    computed; and the trace's real and imaginary deviations inside
    TRACE_TOL and TRACE_IMAG_TOL by d * 2^-51 * sum_i |M_ii|, more than two
    orders of summing the diagonal can differ by.  Every other matrix is
    left to validate_density, which alone words an error; nothing is
    passed if the input is not a stack of square matrices.

    Every set size takes the screen; a single state takes it from d = 5 up.
    Its time per call in ms, with the certificate's share, against a loop
    over the states of hermitian_eig and of validate_density's two paths,
    decomposing every state and screening every state (all states valid
    and full rank, median of 9 interleaved runs of 2-200 calls; 2-core
    shared machine, Python 3.11.7, numpy 2.4.6; repeat runs read up to 1.6x
    higher, every column alike):

                                                  validate_density
                        screen  certificate  hermitian_eig  decomposed  screened
        n = 1,   d = 2   0.08      0.04          0.03          0.04        0.09
        n = 1,   d = 3   0.10      0.06          0.06          0.05        0.07
        n = 1,   d = 4   0.06      0.04          0.06          0.07        0.07
        n = 1,   d = 5   0.07      0.05          0.09          0.10        0.08
        n = 1,   d = 9   0.10      0.07          0.24          0.26        0.11
        n = 1,   d = 16  0.16      0.13          0.78          0.78        0.18
        n = 512, d = 2   0.27      0.10          9.8          14          31
        n = 512, d = 4   0.77      0.31         36            39          44

    So validate_density screens a lone matrix only from d = 5 up.  In five
    interleaved runs over 200 states of every rank, the decomposition cost
    less at d = 4 in all five (0.06-0.11 against 0.07-0.13 ms a call) and
    more at d = 5 in four (0.08-0.14 against 0.08-0.14 ms).  Results are
    the same either way.
    """
    parts = _screen_parts(matrices)
    if parts is None:
        return np.zeros(len(matrices), dtype=bool)
    a, h, hermitian, margin = parts
    # A trace that overflows is infinite, and its matrix not passed.
    with np.errstate(over="ignore", invalid="ignore"):
        diag = a.diagonal(axis1=1, axis2=2)
        tr = diag.sum(axis=1)
        tr_slack = a.shape[1] * 2.0 ** -51 * np.abs(diag).sum(axis=1)
        return (
            hermitian
            & (np.abs(tr.real - 1.0) <= TRACE_TOL - tr_slack)
            & (np.abs(tr.imag) <= TRACE_IMAG_TOL - tr_slack)
            & _lowest_above(h, EIG_FLOOR + margin)
        )


def screen_povm_element(m) -> bool:
    """Whether the matrix m certainly passes validate_povm_element.

    It must be Hermitian within HERMITICITY_TOL * (1 - 2^-50), and one
    _lowest_above call on the pair (h, -h) must prove h >= (EIG_FLOOR +
    margin) I and h <= (POVM_CEILING - margin) I, with h = (M + M^dag) / 2
    and margin = EIGENVALUE_TOL * max(1, ||M||_F).  Negating h is exact,
    so the upper side costs no rounding.  False leaves m to
    validate_povm_element, which alone words an error.
    """
    parts = _screen_parts([m])
    if parts is None:
        return False
    _, h, hermitian, margin = parts
    floors = np.concatenate([EIG_FLOOR + margin, margin - POVM_CEILING])
    return bool(hermitian[0] and _lowest_above(np.concatenate([h, -h]), floors).all())


def validate_povm_element(m) -> PovmElement:
    """Check Hermiticity and spectrum within [-1e-9, 1 + 1e-9].

    The matrix first goes through screen_povm_element, and one it passes
    is returned with no spectrum computed; any other is decomposed by
    hermitian_eig, whose gate raises NotHermitianError.  The result and
    every error are the same either way.
    """
    a = as_matrix(m)
    if screen_povm_element(a):
        return PovmElement(a)
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
    return DensityMatrix(_mixed(w, state_set.stack()))


def _mixed(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i w_i stack_i, unchecked: the one summation of a mixture.

    mixture_state and solve_saddle's queries both sum through here, so a
    solve's upper bound is max_pair_gap of its mixture states bit for bit.
    """
    return np.einsum("i,iab->ab", w, stack)


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random state: G G^dag / Tr(G G^dag) with G a dim x rank
    standard-complex-normal matrix.

    G is filled row-major, the real then the imaginary part of each entry,
    from the SplitMix64 + Box-Muller stream documented in ``_rng``; equal
    seeds give bit-identical output.  G G^dag / Tr is a state by
    construction, so the result is not validated.  With rank == dim it is
    full rank with overwhelming probability; a near-singular draw, minimum
    eigenvalue at most 1e-12, is flagged with a warning rather than
    rejected.  A shifted Cholesky certificate (_lowest_above) rules the
    warning out for almost every draw; only a draw it cannot clear costs
    an eigendecomposition, the only one this function spends.

    A dimension or rank that is not an integer, or not 1 <= rank <= dim,
    raises BadRankError; a seed that is not an integer BadConfigError.
    """
    dim = as_int(dim, "dimension", BadRankError)
    rank = as_int(rank, "rank", BadRankError)
    if dim < 1:
        raise BadRankError(f"dimension must be >= 1, got {dim}")
    if not 1 <= rank <= dim:
        raise BadRankError(f"rank {rank} outside 1..{dim}")
    seed = as_int(seed, "seed")
    g = np.array(SplitMix64(seed).normals(2 * dim * rank)).view(np.complex128).reshape(dim, rank)
    gram = g @ g.conj().T
    rho = gram / gram.diagonal().real.sum()
    # hermitian_eig errs by at most EIGENVALUE_TOL * max(1, ||rho||_F), and
    # ||rho||_F <= 1 to rounding: a draw proved above this floor cannot warn.
    floor = 1e-12 + 2 * EIGENVALUE_TOL
    if rank == dim and not _lowest_above(((rho + rho.conj().T) / 2.0)[None], floor)[0]:
        lo = float(hermitian_eig(rho).eigenvalues[0])
        if lo <= 1e-12:
            warnings.warn(
                f"full-rank draw came out near-singular (min eigenvalue {lo:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
    return DensityMatrix(rho)
