"""Domain types: density matrices, POVM elements, state sets, mixtures.

Validation tolerances are loose enough to admit matrices round-tripped
through decimal serialization (1e-9 spectral and trace slack) while
rejecting genuinely invalid inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

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
    as_int,
)
from .hermitian import (_SCALE_ABOVE, EIGENVALUE_TOL, HERMITICITY_TOL, as_matrix,
                        hermitian_eig, trace)

EIG_FLOOR = -1e-9
TRACE_TOL = 1e-9
TRACE_IMAG_TOL = 1e-12
POVM_CEILING = 1.0 + 1e-9
WEIGHT_SUM_TOL = 1e-9
# The screens pass asymmetry up to this, a few roundings of the modulus
# inside hermitian_eig's gate.
_SCREEN_HERMITICITY_TOL = HERMITICITY_TOL * (1.0 - 2.0 ** -50)
# A stack of at most this many entries (n d^2) is screened on Python
# numbers, a larger one with numpy: the crossover, measured in
# screen_densities' docstring.
_LISTED_MAX = 36


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class StateSet:
    """Ordered, non-empty list of density matrices over a common dimension."""

    dim: int
    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...] | None = field(default=None)
    # Built by the first stack() call, unless from_matrices hands over the
    # frozen stack its states are views of.
    _stack: np.ndarray | None = field(default=None, init=False, repr=False)

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
        sset = cls(dim=states[0].dim, states=states, labels=labels)
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

    From d = 3 up, the matrix first goes through screen_densities, and one
    it passes is returned with no spectrum computed.  Any other is
    decomposed by hermitian_eig, whose gate raises NotHermitianError; the
    screen passes only matrices that clear all three checks, so the result
    and every error are the same either way.
    """
    a = as_matrix(m)
    # Decompose at d <= 2 because perfbench/test_tracing.py counts exactly
    # one hermitian_eig call in validate_density(np.eye(2) / 2).  Screened
    # on lists, a qubit state would cost less: 0.014 against 0.022 ms a
    # call (see screen_densities).
    if a.shape[0] >= 3 and screen_densities(a[None])[0]:
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


def _lowest_above(h: np.ndarray, floor) -> np.ndarray:
    """Mask of the matrices of an (n, d, d) array proved to have no eigenvalue below floor.

    floor is one number or one per matrix.  This is the certificate of a
    numpy stack; _factors_above is the same certificate of one matrix on
    Python numbers, and the proof below covers both.  A matrix passes only
    if it is exactly Hermitian (as a symmetrized (M + M^dag)/2 is), every
    entry is at most 2^500 in modulus, and a Cholesky factorization of
    h - (floor + delta) I completes with every pivot positive.  Here the
    stack is factored column by column, the matrices never mixing, and a
    NaN or infinity arising in one's factorization (the root of a negative
    pivot, say) reaches one of its later pivots, which then fails.
    _factors_above builds the factor row by row and stops at the first
    pivot that is not positive; a NaN or infinity in a row of its factor
    reaches that row's pivot, which fails.

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
      Lemma 3.5).  Python's complex numbers do the same operations: a
      product is (ac - bd) + (ad + bc)i, |z|^2 is computed as
      re re + im im, a division by a real r divides each part by r (one
      rounding, u), and math.sqrt is correctly rounded.  So no term
      carries more than d + 1 roundings, and Thm 10.3's argument gives
      R^dag R = A + dA with |dA| <= gamma_{d+1} |R^dag| |R| entrywise.
    - Then ||dA||_2 <= gamma_{d+1} ||R||_F^2 and ||R||_F^2 = tr(A + dA),
      so ||dA||_2 <= g tr A <= g (1 + u)(B + d delta), with
      g = gamma_{d+1} / (1 - gamma_{d+1}).
    - R^dag R is positive semidefinite, so lambda_min(h) >= floor + delta
      - ||E||_2 - ||dA||_2, which is at least floor when
      delta (1 - u - (1 + u) d g) >= (2.01 u + (1 + u) g) B, about
      (d + 3) u B.  8 (d + 2) u B is more than 5 times that for d < 10^6,
      rounding of B and delta included, in whichever order B is summed.
    """
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


def _factors_above(rows, floor: float) -> bool:
    """Whether one matrix, d rows of Python numbers, is proved to have no eigenvalue below floor.

    _lowest_above's certificate on Python numbers, with its proof: the
    factor is built row by row, each entry its inner product with an
    earlier row subtracted term by term, as the column-by-column numpy
    factorization subtracts it, then divided by that row's root pivot.
    Only the lower triangle is read: the upper is its conjugate, as the
    check of exact Hermiticity has just shown.
    """
    for i, row in enumerate(rows):
        for j in range(i + 1):
            if row[j] != rows[j][i].conjugate():
                return False
    try:
        # A NaN, which max could pass over, has failed the check above.
        if not max(map(abs, chain.from_iterable(rows))) <= _SCALE_ABOVE:
            return False
    except OverflowError:  # abs of a complex number past the largest float
        return False
    pivots = [row[i].real - floor for i, row in enumerate(rows)]
    delta = (8.0 * (len(rows) + 2) * 2.0 ** -53) * sum(map(abs, pivots))
    factor = []
    for row, pivot in zip(rows, pivots):
        r = []
        for j, earlier in enumerate(factor):
            s = row[j]
            for k in range(j):
                s -= r[k] * earlier[k].conjugate()
            r.append(s / earlier[j])
        pivot -= delta
        for c in r:
            pivot -= c.real * c.real + c.imag * c.imag
        if not pivot > 0.0:
            return False
        r.append(math.sqrt(pivot))
        factor.append(r)
    return True


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


def _screen_parts(a):
    """(h, hermitian, margin) for the screens of a, an (n, d, d) complex stack.

    h = (M + M^dag) / 2 is the matrix hermitian_eig decomposes.  hermitian
    marks the matrices within _SCREEN_HERMITICITY_TOL of Hermitian, all of
    them finite (a non-finite entry makes the asymmetry NaN or infinite).
    margin is EIGENVALUE_TOL * max(1, ||M||_F), the pinned bound on how far
    hermitian_eig's eigenvalues lie from h's.
    """
    adjoint = a.conj().transpose(0, 2, 1)
    parts = a.view(np.float64).reshape(a.shape[0], -1)
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.abs(a - adjoint).max(axis=(1, 2)) <= _SCREEN_HERMITICITY_TOL
        margin = EIGENVALUE_TOL * np.maximum(1.0, np.sqrt((parts * parts).sum(axis=1)))
        return (a + adjoint) / 2.0, hermitian, margin


def _listed_parts(m):
    """(h, margin, trace, trace_slack) of one matrix, d rows of Python complex numbers.

    None if the matrix is not within _SCREEN_HERMITICITY_TOL of Hermitian.
    h (as rows), the asymmetry and the margin are _screen_parts' and the
    trace and its slack screen_densities', each by the same operations on
    the same entries, except that the sums run left to right: a norm's
    within a few roundings of numpy's pairwise sum, and the trace's within
    its slack.  A modulus past the largest float raises OverflowError in
    Python, where numpy's is infinite; its matrix is none the screens pass,
    so it gives None too.
    """
    d = len(m)
    h = [[0j] * d for _ in range(d)]
    norm2, tr, tr_abs = 0.0, 0j, 0.0
    try:
        for i, row in enumerate(m):
            for j in range(i + 1):
                z, w = row[j], m[j][i].conjugate()
                if not abs(z - w) <= _SCREEN_HERMITICITY_TOL:
                    return None
                v = (z + w) / 2.0
                h[j][i], h[i][j] = v.conjugate(), v
                norm2 += z.real * z.real + z.imag * z.imag
                if j < i:
                    norm2 += w.real * w.real + w.imag * w.imag
            tr += row[i]
            tr_abs += abs(row[i])
    except OverflowError:
        return None
    return h, EIGENVALUE_TOL * max(1.0, math.sqrt(norm2)), tr, d * 2.0 ** -51 * tr_abs


def screen_densities(a: np.ndarray) -> np.ndarray:
    """Mask of the matrices of a, an (n, d, d) complex128 array, that certainly pass validate_density.

    validate_density's three checks run on the whole stack at once.  A
    matrix is passed only when each clears its threshold by a rounding
    slack: asymmetry up to HERMITICITY_TOL * (1 - 2^-50); no eigenvalue
    below EIG_FLOOR + EIGENVALUE_TOL * max(1, ||M||_F), proved by a
    shifted Cholesky factorization, with no spectrum computed; and the
    trace's real and imaginary deviations inside TRACE_TOL and
    TRACE_IMAG_TOL by d * 2^-51 * sum_i |M_ii|, more than two orders of
    summing the diagonal can differ by.  Every other matrix is
    left to validate_density, which alone words an error.

    A stack of at most _LISTED_MAX entries (n d^2) is screened on Python
    numbers, one matrix at a time (_listed_parts, the trace check, then
    _factors_above on the rows); a larger one with numpy, all matrices at
    once (_screen_parts, the trace check, then one _lowest_above call).
    The branch depends only on the input's size.

    Its time per call in ms, each branch with its certificate's share
    (_factors_above on each symmetrized matrix's rows, _lowest_above on
    the symmetrized stack), against a loop over the states of
    hermitian_eig and of validate_density's two paths, decomposing every
    state and screening every state, each on the branch a lone matrix
    takes (all states valid and full rank, median of 9
    interleaved runs of 1-2,000 calls; 2-core shared machine, Python
    3.11.7, numpy 2.4.6):

                            screen       certificate          validate_density
                         lists  numpy   lists  numpy    eig   decomposed  screened
        n = 1,   d = 2   0.010  0.049   0.010  0.023   0.017    0.022      0.014
        n = 1,   d = 3   0.014  0.053   0.011  0.029   0.034    0.041      0.018
        n = 1,   d = 4   0.018  0.061   0.014  0.035   0.049    0.055      0.022
        n = 1,   d = 5   0.025  0.066   0.018  0.039   0.077    0.085      0.029
        n = 1,   d = 6   0.035  0.074   0.023  0.048   0.109    0.113      0.038
        n = 1,   d = 8   0.056  0.091   0.036  0.065   0.172    0.173      0.091
        n = 1,   d = 9   0.068  0.101   0.045  0.073   0.232    0.240      0.106
        n = 1,   d = 16  0.214  0.154   0.146  0.120   0.712    0.735      0.158
        n = 4,   d = 4   0.070  0.070   0.042  0.041   0.226    0.249      0.094
        n = 512, d = 2   3.6    0.24    1.9    0.09    8.8     11          6.5
        n = 512, d = 4   8.3    0.49    4.6    0.26   29       30          11

    Lists cost a few microseconds a matrix, numpy 35-80 us a call and
    little more a matrix, so which is cheaper turns on both n and d.  In
    us per call, lists/numpy (least of 7 repeats of 50 calls, mean of two
    interleaved runs; the same machine):

        n =          1       2       3       4       6       8      12      16
        d = 1      9/50   14/51   14/36   18/36   40/60   34/36   49/37   65/38
        d = 2      9/44   16/45   22/45   28/46   41/46   54/47   85/53  108/52
        d = 3     13/51   23/53   36/56   44/53   69/58   84/55  125/58  164/59
        d = 4     18/58   33/60   49/62   63/60   95/65  123/63  184/67  249/70
        d = 5     25/65   47/66   65/65   86/67  132/72  171/71  254/76  339/79
        d = 6     31/69   61/74   89/73  120/78  178/83  235/83  369/91  473/100
        d = 7     41/76   81/80  115/81  151/83  230/94  308/90  448/99  602/107
        d = 8     51/83   98/85  146/93  196/95  285/96  379/100 567/109 766/122

    Lists stop winning at about 8 entries (n d^2) at d = 1, 24-28 at
    d = 2, 36-45 at d = 3, 48-64 at d = 4 and 50-130 at d = 5-8; a lone
    matrix is cheaper on lists up to d = 9 and dearer at d = 16.  No one
    bound on n d^2 follows that.  Over the 128 cells of the grid (n =
    1-16, d = 1-8), _LISTED_MAX = 36 gives the least summed time and the
    fewest cells on the slower branch (17 of 128), in both runs; every
    bound from 27 to 54 comes within 0.6% of its sum.
    """
    if a.size <= _LISTED_MAX:
        passed = []
        for m in a.tolist():
            parts = _listed_parts(m)
            if parts is None:
                passed.append(False)
                continue
            h, margin, tr, tr_slack = parts
            passed.append(abs(tr.real - 1.0) <= TRACE_TOL - tr_slack
                          and abs(tr.imag) <= TRACE_IMAG_TOL - tr_slack
                          and _factors_above(h, EIG_FLOOR + margin))
        return np.array(passed, dtype=bool)
    h, hermitian, margin = _screen_parts(a)
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


def screen_povm_element(a: np.ndarray) -> bool:
    """Whether a, the (d, d) complex128 matrix, certainly passes validate_povm_element.

    It must be Hermitian within HERMITICITY_TOL * (1 - 2^-50), and the
    certificate of h and of -h must prove h >= (EIG_FLOOR + margin) I and
    h <= (POVM_CEILING - margin) I, with h = (M + M^dag) / 2 and margin =
    EIGENVALUE_TOL * max(1, ||M||_F).  Negating h is exact, so the upper
    side costs no rounding.  A matrix of at most _LISTED_MAX entries is
    screened on Python numbers (_factors_above on each), as
    screen_densities screens a small stack, and a larger one with numpy
    (one _lowest_above call on the pair).  False leaves a to
    validate_povm_element, which alone words an error.
    """
    if a.size <= _LISTED_MAX:
        parts = _listed_parts(a.tolist())
        if parts is None:
            return False
        h, margin, _, _ = parts
        return (_factors_above(h, EIG_FLOOR + margin)
                and _factors_above([[-z for z in row] for row in h], margin - POVM_CEILING))
    h, hermitian, margin = _screen_parts(a[None])
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
    BadWeightsError for input numpy cannot read as floats (its reason
    named), a non-finite entry (its index named), a negative entry, or a
    sum off 1 by more than 1e-9.
    """
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadWeightsError(f"weights must be real numbers: {exc}") from exc
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
    rejected.  A shifted Cholesky certificate on the draw's rows of Python
    numbers (_factors_above) rules the warning out for almost every draw;
    only a draw it cannot clear costs an eigendecomposition, the only one
    this function spends.  The certificate takes the rows at every d.  A
    whole full-rank draw took, in ms, 0.028-0.062 at d = 2-6, 0.074-0.077
    at d = 7, 0.10-0.11 at d = 9, 0.16-0.17 at d = 12 and 0.27-0.28 at
    d = 16 (least and median of 5 interleaved runs, each the best of 7
    repeats of 300 calls; 2-core shared machine, Python 3.11.7, numpy
    2.4.6).

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
    if rank == dim and not _factors_above(((rho + rho.conj().T) / 2.0).tolist(), floor):
        lo = float(hermitian_eig(rho).eigenvalues[0])
        if lo <= 1e-12:
            warnings.warn(
                f"full-rank draw came out near-singular (min eigenvalue {lo:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
    return DensityMatrix(rho)
