"""Saddle point of the measurement-vs-state-pair game.

The payoff is u(T, (rho, sigma)) = Tr(T rho) - Tr(T sigma).  The
measurement player maximizes the worst pair gap; the optimal margin is

    eps* = max_T min_{(rho, sigma) in S0 x S1} u(T, (rho, sigma)),

and by minimax duality it equals the smallest max_pair_gap between a
mixture of S0 and a mixture of S1: the sum of the positive eigenvalues of
their difference, which is their trace distance (half-norm convention,
so no factor 2) when their traces are equal.

solve_saddle minimizes f(mu0, mu1) = max_pair_gap of the two mixtures,
f(mu) = max_{0 <= T <= I} Tr(T Delta(mu)), by Kelley's cutting-plane
method (Kelley 1960), which for this game is the double oracle of
McMahan, Gordon & Blum (2003).  Each iteration queries one mixture pair:
LAPACK's eigendecomposition of Delta(mu) (numpy's eigh) gives the
positive-part projector T_k, the new cut, and a screened value of f(mu).
Where that value leaves room to beat the best upper bound so far,
hermitian_eig recomputes f(mu) exactly, and only such a value becomes the
certified upper bound on eps*; the screen's slack (_screen_slack's kernel
term) covers both eigensolvers' error, so no query that could lower the
bound is skipped.  Every cut is a linear minorant of f, so the
master problem, min over mu of max_k Tr(T_k Delta(mu)), is a linear
program; its optimal mixtures are the next query.  The solver works on
the LP's dual, max over weights w on the cuts of the worst pair gap of
sum_k w_k T_k, whose duals are those mixtures: a dense revised simplex
(_master.py) re-solved warm after each cut, with Bland's rule (Bland
1977) against cycling on degenerate bases.

LP duality makes the master's value the worst pair gap of the measurement
sum_k w_k T_k.  That measurement is a convex combination of projectors,
so it is a valid POVM element analytically, and its worst pair gap,
evaluated exactly, is the certified lower bound.  Neither bound rests on
the LP being solved exactly, nor on LAPACK's cuts being exact: like the
master's weights, a cut only chooses the next measurement, and a poor
one only slows the convergence of the duality gap, the convergence
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# numpy's log screens certify's trials; their reported weights take
# math.log's, through _rng.simplex_points.
from numpy import log
from numpy.linalg import eigh, eigvalsh

from ._master import Master
from ._rng import SplitMix64, normalized, simplex_points
# separation_gap and trace_distance are not called here; they stay bound
# because the benchmark's tracer (perfbench/tracing.py) wraps
# statesep.saddle.separation_gap and statesep.saddle.trace_distance.
from .discrimination import max_pair_gap, min_separation_gap, separation_gap, trace_distance
from .errors import BadConfigError, BadWeightsError, DimensionMismatchError, EmptySetError
from .hermitian import POSITIVE_CUTOFF, hermitian_eig
from .states import WEIGHT_SUM_TOL, PovmElement, StateSet, mixture_state

# certify_forward draws and screens its trials in blocks of this many
# weights, or matrix entries where a trial's matrix has more of them.
_CERTIFY_BLOCK = 1 << 14
# Screened distances within _screen_slack(d, l0 + l1) of the smallest are
# recomputed exactly; this is the share of eigvalsh and hermitian_eig in
# it per unit of d.  solve_saddle screens each query's distance with the
# kernel term alone, d * _SCREEN_SLACK: its screen and hermitian_eig see
# the same matrix.
_SCREEN_SLACK = 8e-13
# The relative error allowed to each of the screen's exponentials -log(U)
# against math.log's.  numpy's log is not correctly rounded, but it was
# seen within 1 ulp (relative 2^-52) of math.log, 256 times inside this;
# tests/test_rng.py pins it on the stream's uniforms.
_SCREEN_LOG_ETA = 2.0 ** -44


def _screen_slack(d: int, states: int) -> float:
    """How far a screened distance may lie above the least exact one.

    Three errors separate a trial's screened distance from the one
    max_pair_gap gives it; let u = 2^-53.  The distance of a mixture
    difference H is f(H) = sum_i max(lambda_i, 0) = max_{0 <= T <= I}
    Tr(T H).  So moving each eigenvalue by e_i moves f by at most
    sum_i |e_i|, and a change E of H moves f by at most ||E||_1: twice what
    the same errors move half the trace norm by.
    - The kernels.  Each keeps every eigenvalue within 1e-13 * max(1,
      ||H||_F) of the exact ones of the matrix it is given: hermitian_eig
      by its stopping rule (off-diagonal norm at most 1e-13 * ||H||_F)
      up to its rotations' rounding, eigvalsh by LAPACK's backward-error
      bound p(d) u ||H||_2, p a modestly growing function of d (LAPACK
      Users' Guide, 3rd ed., 1999, section 4.7); a property test pins the
      two within that of each other.  A mixture difference has
      ||H||_F <= 2, so each distance is within d * 2e-13 of that matrix's
      exact one.
    - The matrices.  The screen sums a block's mixtures by real matmuls on
      the stacks' float64 view, mixture_state by an einsum.  Each real
      component of a mixture sums `states` products of weights (summing
      to 1) and entries of modulus at most 1, in some order, so it is
      within gamma_states (Higham 2002, eq. 3.5) of exact, and each entry
      of a difference within (states + 1) u.  The two differences then
      differ by at most 2 sqrt(2) (states + 1) u per entry, d times that
      in Frobenius norm, and their exact distances by at most sqrt(d)
      times the Frobenius norm of that (||E||_1 <= sqrt(d) ||E||_F):
      2 sqrt(2) d^1.5 (states + 1) u.
    - The weights.  The screen normalizes numpy's -log(U), the reported
      weights math.log's (_rng.simplex_points), in the same way: a
      left-to-right sum of at most `states` positive terms, within
      relative gamma_states of exact, then one division, within u.  With
      each screened exponential within relative eta = _SCREEN_LOG_ETA of
      the stream's, so is their sum, and each screened weight is within
      relative w = 2 eta + 2 states u (to first order) of the reported
      one.  A mixture then moves by at most w max_i ||rho_i||_1 in trace
      norm, and the difference, and so the distance, by twice that.
    With e = 4d * 1e-13 + 2 sqrt(2) d^1.5 (states + 1) u + 2w, the trial
    with the least exact distance screens within 2e of the least screened
    distance.  The slack is 2e, with 6 in place of 4 sqrt(2) and 10 in
    place of 8 to spare for second-order terms, and for weights, entries
    and trace norms that exceed 1 by validation's 1e-9 tolerances.

    solve_saddle uses the kernel term alone, d * _SCREEN_SLACK: it gives
    eigh and hermitian_eig the same matrix, so only the kernels' errors
    separate a query's screened distance from its hermitian_eig one.
    """
    u = 2.0 ** -53
    return (d * (_SCREEN_SLACK + 6.0 * math.sqrt(d) * (states + 1) * u)
            + 10.0 * (_SCREEN_LOG_ETA + states * u))


@dataclass(frozen=True)
class SolverConfig:
    """Limits for solve_saddle.

    max_rounds caps the cutting-plane iterations: one LAPACK
    eigendecomposition and one master re-solve each, and a hermitian_eig
    one wherever the query can lower the upper bound.  target_gap, finite
    and positive, is the duality gap at which the solve stops.  The solver
    is deterministic.
    """

    max_rounds: int = 20000
    target_gap: float = 1e-4

    def __post_init__(self):
        if self.max_rounds < 1:
            raise BadConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not (math.isfinite(self.target_gap) and self.target_gap > 0.0):
            raise BadConfigError(
                f"target_gap must be finite and positive, got {self.target_gap}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """Certified bounds after `round` iterations (both sides best-so-far)."""

    round: int
    lower_bound: float
    upper_bound: float
    gap: float


@dataclass(frozen=True)
class CertReport:
    """Outcome of sampling mixture pairs against a measurement's margin.

    violation = margin - max_pair_gap(mixtures).  For a T with spectrum in
    [0, I] it is at most rounding; a validated T may lie up to 1e-9 outside,
    which adds at most 1e-9 * ||mixture difference||_1, about 2e-9.  So a
    violation beyond 3e-9 (cli.CERT_TOL) would contradict the margin being
    achievable.
    """

    margin: float
    max_violation: float
    worst_mu0: np.ndarray
    worst_mu1: np.ndarray
    min_distance: float
    trials: int


@dataclass(frozen=True)
class SaddleResult:
    """Solver output.

    measurement is the best certified combination of cuts; lower_bound is
    its worst pair gap (an achievable margin), upper_bound the smallest
    max_pair_gap of the mixture pairs queried (no measurement can beat
    it).  mu0/mu1 are the mixtures of the last iteration: the uniform pair
    at the first, the master's optimal mixtures after.  best_mu0/best_mu1
    are the mixtures attaining upper_bound.  rounds_used counts iterations,
    and trace holds one checkpoint per iteration.
    """

    measurement: PovmElement
    mu0: np.ndarray
    mu1: np.ndarray
    lower_bound: float
    upper_bound: float
    gap: float
    rounds_used: int
    converged: bool
    best_mu0: np.ndarray
    best_mu1: np.ndarray
    trace: tuple[Checkpoint, ...] = field(default=())


def _check_instance(set0: StateSet, set1: StateSet) -> None:
    if len(set0) == 0 or len(set1) == 0:
        raise EmptySetError("both state sets must be non-empty")
    if set0.dim != set1.dim:
        raise DimensionMismatchError(
            f"set dimensions differ: {set0.dim} vs {set1.dim}"
        )


def solve_saddle(
    set0: StateSet,
    set1: StateSet,
    config: SolverConfig | None = None,
) -> SaddleResult:
    """Compute the optimal separation margin with certified two-sided bounds.

    Deterministic: identical inputs and config give bit-identical results.
    Bounds are evaluated at every iteration; the run stops as soon as
    upper - lower <= target_gap, or after max_rounds iterations.
    """
    cfg = config or SolverConfig()
    _check_instance(set0, set1)
    d = set0.dim
    stack0 = set0.stack()
    stack1 = set1.stack()
    l0, l1 = len(set0), len(set1)

    # Flattened views: mixture matrices and Tr(T rho_i) as single matmuls.
    flat0 = stack0.reshape(l0, d * d)
    flat1 = stack1.reshape(l1, d * d)
    flat0_t = np.ascontiguousarray(stack0.transpose(0, 2, 1).reshape(l0, d * d))
    flat1_t = np.ascontiguousarray(stack1.transpose(0, 2, 1).reshape(l1, d * d))

    master = Master(l0, l1)
    cuts: list[np.ndarray] = []

    def add_cut(t: np.ndarray) -> None:
        flat_t = t.reshape(d * d)
        cuts.append(t)
        master.add_cut((flat0_t @ flat_t).real, (flat1_t @ flat_t).real)

    identity_half = PovmElement(np.eye(d, dtype=np.complex128) / 2.0)
    add_cut(identity_half.matrix)
    best_t = identity_half
    best_lower = min_separation_gap(identity_half, set0, set1)

    mu0 = np.full(l0, 1.0 / l0)
    mu1 = np.full(l1, 1.0 / l1)
    best_upper = np.inf
    best_mu0 = mu0
    best_mu1 = mu1
    history: list[Checkpoint] = []
    rounds_used = 0
    converged = False

    for t in range(1, cfg.max_rounds + 1):
        rounds_used = t
        # LAPACK's eigendecomposition of the query's mixture difference
        # chooses the new cut, its positive-part projector.  The sum of its
        # positive eigenvalues, an upper bound, is recomputed with
        # hermitian_eig only where the screened one leaves room to beat the
        # best so far.
        diff = (mu0 @ flat0 - mu1 @ flat1).reshape(d, d)
        h = (diff + diff.conj().T) / 2.0
        lam, vecs = eigh(h)
        if np.maximum(lam, 0.0).sum() <= best_upper + d * _SCREEN_SLACK:
            value = float(np.maximum(hermitian_eig(h).eigenvalues, 0.0).sum())
            if value < best_upper:
                best_upper = value
                best_mu0 = mu0
                best_mu1 = mu1
        cols = vecs[:, lam > POSITIVE_CUTOFF]
        add_cut(cols @ cols.conj().T)

        weights, next_mu0, next_mu1 = master.solve()
        combined = np.zeros((d, d), dtype=np.complex128)
        for k in np.flatnonzero(weights):
            combined += weights[k] * cuts[k]
        candidate = PovmElement(combined)
        lower = min_separation_gap(candidate, set0, set1)
        if lower > best_lower:
            best_lower = lower
            best_t = candidate

        gap = best_upper - best_lower
        history.append(
            Checkpoint(round=t, lower_bound=best_lower, upper_bound=best_upper, gap=gap)
        )
        if gap <= cfg.target_gap:
            converged = True
            break
        mu0, mu1 = next_mu0, next_mu1

    return SaddleResult(
        measurement=best_t,
        mu0=mu0,
        mu1=mu1,
        lower_bound=best_lower,
        upper_bound=best_upper,
        gap=best_upper - best_lower,
        rounds_used=rounds_used,
        converged=converged,
        best_mu0=best_mu0,
        best_mu1=best_mu1,
        trace=tuple(history),
    )


def _check_weight_rows(rows: np.ndarray, first_trial: int) -> None:
    # as_mixture_weights' rules, one row per sampled mixture.
    bad = (
        ~np.isfinite(rows).all(axis=1)
        | (rows.min(axis=1) < 0.0)
        | (np.abs(rows.sum(axis=1) - 1.0) > WEIGHT_SUM_TOL)
    )
    if bad.any():
        trial = first_trial + int(np.flatnonzero(bad)[0])
        raise BadWeightsError(f"trial {trial}: sampled weights are off the simplex")


def certify_forward(
    t: PovmElement,
    set0: StateSet,
    set1: StateSet,
    trials: int,
    seed: int,
) -> CertReport:
    """Sample mixture pairs and compare their max_pair_gap to T's margin.

    Any POVM element whose worst pair gap is eps forces every mixture pair
    of set0 and set1 to keep max_pair_gap >= eps, the trace distance where
    the two traces agree; this
    samples `trials` uniform (Dirichlet(1,...,1)) mixture pairs from the
    documented SplitMix64 stream (mu0's exponentials drawn before mu1's,
    per trial) and reports the largest violation found, expected <= 3e-9
    (cli.CERT_TOL; see below on measurements at the validator's limits).

    The trials are screened, then the closest pair is computed exactly.
    Each block of trials takes one array draw of uniforms.  The screen's
    weights normalize their numpy log, and its mixture differences (two
    real matmuls on the stacks' float64 view) go through one batched
    LAPACK eigvalsh call.  Every trial whose screened distance lies within
    a rounding slack of the smallest gets its stream weights
    (_rng.simplex_points, with math.log) and is recomputed with
    mixture_state and max_pair_gap, in trial order, and the first strict
    minimum of those values is reported, so no reported number comes from
    numpy's log or eigvalsh.  The slack covers eigvalsh's backward error
    (LAPACK Users' Guide, section 4.7) and hermitian_eig's stopping rule,
    the two ways of summing a mixture, and the screened weights' error
    (_screen_slack), so the report is the one a trial-by-trial loop with
    max_pair_gap gives; normally a single trial is recomputed.

    The margin is T's worst pair gap as given, not that of T clipped to
    [0, I].  Validation accepts a measurement whose spectrum lies within
    1e-9 of [0, 1], and such a T can report a margin up to about 2e-9
    above eps*, 1e-9 from each end of its spectrum: T = diag(1 + 0.99e-9,
    0.5, -0.99e-9) with S0 = {diag(0.9, 0.1, 0)} and S1 = {diag(0, 0.1,
    0.9)} reports a violation of 1.78e-9 where eps* = 0.9 exactly.  In
    general the excess is at most 1e-9 times the trace norm of the mixture
    difference, 2 plus terms of order d * 1e-9, which cli.CERT_TOL = 3e-9
    covers with 1e-9 to spare for rounding.  Clipping T instead would cost
    an eigendecomposition of T on every call and report the margin of
    another matrix than the one given.

    The arguments are checked in order: a measurement of another dimension
    than set0's raises DimensionMismatchError, trials below 1
    BadConfigError, and sets of different dimensions DimensionMismatchError.
    """
    if t.dim != set0.dim:
        raise DimensionMismatchError(f"measurement dim {t.dim} != state dim {set0.dim}")
    if trials < 1:
        raise BadConfigError(f"trials must be >= 1, got {trials}")
    _check_instance(set0, set1)
    margin = min_separation_gap(t, set0, set1)
    rng = SplitMix64(seed)
    l0, l1, d = len(set0), len(set1), set0.dim
    # Real views: a block's mixtures are two float64 matmuls.
    real0 = set0.stack().view(np.float64).reshape(l0, 2 * d * d)
    real1 = set1.stack().view(np.float64).reshape(l1, 2 * d * d)
    per_block = max(1, _CERTIFY_BLOCK // max(l0 + l1, d * d))
    slack = _screen_slack(d, l0 + l1)

    best = np.inf
    # (screened distance, mu0, mu1) of every trial within slack of best, in
    # trial order, keyed by its stream weights: a repeat (every trial, when
    # both sets are singletons) can never beat its first occurrence.
    pool: dict[bytes, tuple[float, np.ndarray, np.ndarray]] = {}
    for start in range(0, trials, per_block):
        count = min(per_block, trials - start)
        uniforms = rng.uniform_block(count * (l0 + l1)).reshape(count, l0 + l1)
        draws = -log(uniforms)
        w0, w1 = normalized(draws[:, :l0]), normalized(draws[:, l0:])
        _check_weight_rows(w0, start)
        _check_weight_rows(w1, start)
        diff = (w0 @ real0 - w1 @ real1).view(np.complex128).reshape(-1, d, d)
        lam = eigvalsh((diff + diff.conj().transpose(0, 2, 1)) / 2.0)
        screened = np.maximum(lam, 0.0).sum(axis=1)
        best = min(best, float(screened.min()))
        pool = {key: entry for key, entry in pool.items() if entry[0] <= best + slack}
        for k in np.flatnonzero(screened <= best + slack):
            mu0, mu1 = simplex_points(uniforms[k, :l0]), simplex_points(uniforms[k, l0:])
            pool.setdefault(mu0.tobytes() + mu1.tobytes(), (float(screened[k]), mu0, mu1))

    min_distance = np.inf
    worst_mu0 = None
    worst_mu1 = None
    for _, mu0, mu1 in pool.values():
        dist = max_pair_gap(mixture_state(mu0, set0), mixture_state(mu1, set1))
        if dist < min_distance:
            min_distance = dist
            worst_mu0 = mu0
            worst_mu1 = mu1
    return CertReport(
        margin=margin,
        max_violation=margin - float(min_distance),
        worst_mu0=worst_mu0,
        worst_mu1=worst_mu1,
        min_distance=float(min_distance),
        trials=trials,
    )
