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
program; its optimal mixtures are Kelley's point m.  The solver works on
the LP's dual, max over weights w on the cuts of the worst pair gap of
sum_k w_k T_k, whose duals are those mixtures: a dense tableau simplex
(_master.py), its first basis triangular and written in closed form, then
pivoted in place and re-solved warm after each cut, with Bland's rule
(Bland 1977) against cycling on degenerate bases.

Kelley's method tails off because its query jumps to each new m, far
from the best mixtures found so far.  So the queries are smoothed
(Wentges 1997): the first is the uniform pair, and each later one is
q = a c + (1 - a) m, a = _SMOOTHING, where the stability centre c is the
mixture pair attaining the best upper bound so far.  A query is
mispriced when its cut leaves the model's value at m where it was, the
master's value v: m0 . Tr(T rho) - m1 . Tr(T sigma) <= v + 1e-12.  The
query after a mispriced one is m itself, a plain Kelley step (Pessoa,
Sadykov, Uchoa & Vanderbeck 2013), so at least one round in two cuts off
Kelley's point, as every round of Kelley's method does.  q is a convex combination of two mixture pairs, so it is a
mixture pair too: its cut and its value are as valid as m's.

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
from ._rng import SplitMix64, simplex_points
# separation_gap and trace_distance are not called here; they stay bound
# because the benchmark's tracer (perfbench/tracing.py) wraps
# statesep.saddle.separation_gap and statesep.saddle.trace_distance.
from .discrimination import (_require_same_dim, max_pair_gap, min_separation_gap,
                             separation_gap, trace_distance)
from .errors import (
    BadConfigError,
    BadWeightsError,
    DimensionMismatchError,
    as_int,
    as_real,
)
from .hermitian import EIGENVALUE_TOL, POSITIVE_CUTOFF, hermitian_eig
from .states import PovmElement, StateSet, _mixed, mixture_state

# certify_forward draws and screens its trials in blocks of this many
# weights, or matrix entries where a trial's matrix has more of them.
_CERTIFY_BLOCK = 1 << 14
# The relative error allowed to each of the screen's exponentials -log(U)
# against math.log's.  numpy's log is not correctly rounded, but it was
# seen within 1 ulp (relative 2^-52) of math.log, 256 times inside this;
# tests/test_rng.py pins it on the stream's uniforms.
_SCREEN_LOG_ETA = 2.0 ** -44
# Each query after the first lies this share of the way from Kelley's point
# towards the best mixtures so far (Wentges 1997).
_SMOOTHING = 0.5


def _screen_slack(d: int, states: int) -> float:
    """How far a screened distance may lie above the least exact one.

    Three errors separate a trial's screened distance from the one
    max_pair_gap gives it; let u = 2^-53.  The distance of a mixture
    difference H is f(H) = sum_i max(lambda_i, 0) = max_{0 <= T <= I}
    Tr(T H).  So moving each eigenvalue by e_i moves f by at most
    sum_i |e_i|, and a change E of H moves f by at most ||E||_1: twice what
    the same errors move half the trace norm by.
    - The kernels.  Each keeps every eigenvalue within EIGENVALUE_TOL *
      max(1, ||H||_F) of the exact ones of the matrix it is given.  Both
      are a Householder tridiagonalization followed by a QL or QR
      iteration, hermitian_eig in Python and eigvalsh in LAPACK, and both
      are backward stable, with eigenvalues within p(d) u ||H||_2, p a
      modestly growing function of d (LAPACK Users' Guide, 3rd ed., 1999,
      section 4.7); property tests pin the two within EIGENVALUE_TOL *
      max(1, ||H||_F) of each other.  (eigvalsh falls short of that bound
      on some matrices that mix entries near 1e-160 with entries of order
      1: on a 4 x 4 it missed +/-0.375 by 1.5e-7, where eigh did not.)  A
      mixture difference has ||H||_F <= 2, so each distance is within
      2d * EIGENVALUE_TOL of that matrix's exact one.
    - The matrices.  The screen sums each side's mixture, scaled by the
      sum of its exponentials, by one real matmul of its raw exponentials
      and the stack's float64 view; mixture_state sums the reported
      weights (summing to 1) by an einsum.  Each real component sums
      `states` products of positive factors and entries of modulus at
      most 1, in some order, so it is within gamma_states (Higham 2002,
      eq. 3.5) of exact relative to the factors' sum: after the screen's
      division by that sum (below), within gamma_states of exact in both.
      Each entry of a difference is then within (states + 1) u.  The two
      differences differ by at most 2 sqrt(2) (states + 1) u per entry, d
      times that in Frobenius norm, and their exact distances by at most
      sqrt(d) times the Frobenius norm of that (||E||_1 <= sqrt(d)
      ||E||_F): 2 sqrt(2) d^1.5 (states + 1) u.
    - The weights.  Let e_i be a side's exponentials -log(U) with
      math.log, the stream's, and e~_i = e_i (1 + eta_i), |eta_i| <= eta
      = _SCREEN_LOG_ETA, the screen's with numpy's log; the side has l <=
      `states` of them.  The reported weights (_rng.simplex_points)
      divide each e_i by the left-to-right sum of the e_j, within
      relative gamma_(l-1) of exact, so each is within relative l u of
      e_i / sum_j e_j.  The screen forms no weights: it sums the e~_i in
      numpy's order, within relative gamma_(l-1) + eta of sum_j e_j, and
      divides the matmul's summed matrix by that sum.  Its exact quotient
      is the mixture whose weight on state i, e~_i over the computed sum,
      is within relative 2 eta + (l - 1) u of e_i / sum_j e_j, and so
      within relative w = 2 eta + 2 states u of the reported weight (to
      first order).  A mixture then moves by at most w max_i ||rho_i||_1
      in trace norm.  The division rounds each real component of the
      mixture M by relative u, a change E with ||E||_1 <= sqrt(d) ||E||_F
      <= sqrt(d) u ||M||_F <= sqrt(d) u, as ||M||_F <= Tr M = 1 for a
      mixture of states.  The difference, and so the distance, moves by
      at most twice the sum, 2w + 2 sqrt(d) u.
    With e = 4d * EIGENVALUE_TOL + 2 sqrt(2) d^1.5 (states + 1) u + 2w + 2
    sqrt(d) u, the trial with the least exact distance screens within 2e
    of the least screened distance.  The slack is 2e, with 6 in place of 4
    sqrt(2) and 10 in place of 8 to spare for second-order terms, and for
    weights, entries and trace norms that exceed 1 by validation's 1e-9
    tolerances.

    solve_saddle uses the kernel term alone, d * 8 * EIGENVALUE_TOL: it
    gives eigh and hermitian_eig the same matrix, so only the kernels'
    errors separate a query's screened distance from its hermitian_eig one.
    """
    u = 2.0 ** -53
    return (d * (8 * EIGENVALUE_TOL + 6.0 * math.sqrt(d) * (states + 1) * u)
            + 10.0 * (_SCREEN_LOG_ETA + states * u) + 4.0 * math.sqrt(d) * u)


@dataclass(frozen=True)
class SolverConfig:
    """Limits for solve_saddle.

    max_rounds, an integer >= 1, caps the cutting-plane iterations: one
    LAPACK eigendecomposition and one master re-solve each, and a
    hermitian_eig one wherever the query can lower the upper bound.
    target_gap, a finite positive number, is the duality gap at which the
    solve stops.  Anything else raises BadConfigError.  The solver is
    deterministic.
    """

    max_rounds: int = 20000
    target_gap: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "max_rounds", as_int(self.max_rounds, "max_rounds"))
        object.__setattr__(self, "target_gap", as_real(self.target_gap, "target_gap"))
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SaddleResult:
    """Solver output.

    Each bound comes with its certificate, and re-checks bit for bit with
    the public evaluator.  measurement is the best certified combination
    of cuts, and lower_bound = min_separation_gap(measurement, S0, S1), an
    achievable margin.  best_mu0/best_mu1 are the mixture pair with the
    smallest max_pair_gap of those queried, and upper_bound =
    max_pair_gap(mixture_state(best_mu0, S0), mixture_state(best_mu1, S1)):
    no measurement can beat it.  rounds_used counts iterations, and trace
    holds one checkpoint per iteration.
    """

    measurement: PovmElement
    lower_bound: float
    upper_bound: float
    gap: float
    rounds_used: int
    converged: bool
    best_mu0: np.ndarray
    best_mu1: np.ndarray
    trace: tuple[Checkpoint, ...] = field(default=())


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
    _require_same_dim(set0.dim, set1.dim)
    d = set0.dim
    stack0 = set0.stack()
    stack1 = set1.stack()
    l0, l1 = len(set0), len(set1)

    # Transposed flat views: Tr(T rho_i) for every state as one matmul.
    flat0_t = np.ascontiguousarray(stack0.transpose(0, 2, 1).reshape(l0, d * d))
    flat1_t = np.ascontiguousarray(stack1.transpose(0, 2, 1).reshape(l1, d * d))

    master = Master(l0, l1)
    cuts: list[np.ndarray] = []

    def add_cut(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat_t = t.reshape(d * d)
        cuts.append(t)
        exp0, exp1 = (flat0_t @ flat_t).real, (flat1_t @ flat_t).real
        master.add_cut(exp0, exp1)
        return exp0, exp1

    best_t = PovmElement(np.eye(d, dtype=np.complex128) / 2.0)
    add_cut(best_t.matrix)
    best_lower = min_separation_gap(best_t, set0, set1)

    mu0 = np.full(l0, 1.0 / l0)
    mu1 = np.full(l1, 1.0 / l1)
    best_upper = np.inf
    best_mu0 = mu0
    best_mu1 = mu1
    # Kelley's point (the master's optimal mixtures) and the master's value
    # there, once the master has been solved.
    kelley: tuple[np.ndarray, np.ndarray, float] | None = None
    history: list[Checkpoint] = []

    for t in range(1, cfg.max_rounds + 1):
        # LAPACK's eigendecomposition of the query's mixture difference
        # chooses the new cut, its positive-part projector.  The sum of its
        # positive eigenvalues, an upper bound, is recomputed with
        # hermitian_eig only where the screened one leaves room to beat the
        # best so far.  The mixtures are summed as mixture_state sums them,
        # so the bound is max_pair_gap of the best pair's mixture states.
        diff = _mixed(mu0, stack0) - _mixed(mu1, stack1)
        h = (diff + diff.conj().T) / 2.0
        lam, vecs = eigh(h)
        if np.maximum(lam, 0.0).sum() <= best_upper + d * (8 * EIGENVALUE_TOL):
            value = float(np.maximum(hermitian_eig(h).eigenvalues, 0.0).sum())
            if value < best_upper:
                best_upper = value
                best_mu0 = mu0
                best_mu1 = mu1
        cols = vecs[:, lam > POSITIVE_CUTOFF]
        exp0, exp1 = add_cut(cols @ cols.conj().T)
        # The query is mispriced when its cut raises the model's value at
        # Kelley's point by at most rounding; the next query is then that
        # point itself.
        mispriced = kelley is not None and (
            float(kelley[0] @ exp0 - kelley[1] @ exp1) <= kelley[2] + 1e-12
        )

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
            break
        kelley = (next_mu0, next_mu1, lower)
        if mispriced:
            mu0, mu1 = next_mu0, next_mu1
        else:
            mu0 = _SMOOTHING * best_mu0 + (1.0 - _SMOOTHING) * next_mu0
            mu1 = _SMOOTHING * best_mu1 + (1.0 - _SMOOTHING) * next_mu1

    return SaddleResult(
        measurement=best_t,
        lower_bound=best_lower,
        upper_bound=best_upper,
        gap=gap,
        rounds_used=len(history),
        converged=gap <= cfg.target_gap,
        best_mu0=best_mu0,
        best_mu1=best_mu1,
        trace=tuple(history),
    )


def _check_draws(draws: np.ndarray, s0: np.ndarray, s1: np.ndarray, first_trial: int) -> None:
    # A block's raw exponentials, one row per trial, and each side's row
    # sums: a draw that is negative or NaN, or a sum that is not finite and
    # positive, leaves a trial's screened mixtures off the simplex.  The
    # stream's uniforms lie in (0, 1], so only a fault, or a singleton side
    # whose uniform is exactly 1.0, gets here.
    ok = ((draws.min(axis=1) >= 0.0)
          & (s0[:, 0] > 0.0) & (s0[:, 0] < np.inf)
          & (s1[:, 0] > 0.0) & (s1[:, 0] < np.inf))
    if not ok.all():
        trial = first_trial + int(np.flatnonzero(~ok)[0])
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
    Each block of trials takes one array draw of uniforms.  The screen
    forms no weights: it sums each side's exponentials (numpy's log),
    multiplies them into the stack's float64 view by one real matmul,
    divides each side's summed matrix by its sum, and puts the mixture
    differences through one batched LAPACK eigvalsh call.  Every trial
    whose screened distance lies within a rounding slack of the smallest
    gets its stream weights (_rng.simplex_points, with math.log) and is
    recomputed with mixture_state and max_pair_gap, in trial order, and
    the first strict minimum of those values is reported, so no reported
    number comes from numpy's log, its sums, BLAS's matmul or eigvalsh.
    The slack covers eigvalsh's backward error (LAPACK Users' Guide,
    section 4.7) and hermitian_eig's stopping rule, the two ways of
    summing a mixture, and the screened mixtures' weights and division
    (_screen_slack), so the report is the one a trial-by-trial loop with
    max_pair_gap gives; normally a single trial is recomputed.  A raw
    draw that is negative or NaN, or a side whose draws do not sum to a
    finite positive number, raises BadWeightsError naming its trial.

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
    than set0's raises DimensionMismatchError, trials that is not an
    integer >= 1 BadConfigError, a seed that is not an integer
    BadConfigError, and sets of different dimensions
    DimensionMismatchError.
    """
    if t.dim != set0.dim:
        raise DimensionMismatchError(f"measurement dim {t.dim} != state dim {set0.dim}")
    trials = as_int(trials, "trials")
    if trials < 1:
        raise BadConfigError(f"trials must be >= 1, got {trials}")
    seed = as_int(seed, "seed")
    _require_same_dim(set0.dim, set1.dim)
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
        d0, d1 = draws[:, :l0], draws[:, l0:]
        s0, s1 = d0.sum(axis=1, keepdims=True), d1.sum(axis=1, keepdims=True)
        _check_draws(draws, s0, s1, start)
        diff = ((d0 @ real0) / s0 - (d1 @ real1) / s1).view(np.complex128).reshape(-1, d, d)
        lam = eigvalsh((diff + diff.conj().transpose(0, 2, 1)) / 2.0)
        screened = np.maximum(lam, 0.0).sum(axis=1)
        best = min(best, float(screened.min()))
        pool = {key: entry for key, entry in pool.items() if entry[0] <= best + slack}
        for k in np.flatnonzero(screened <= best + slack):
            mu0, mu1 = simplex_points(uniforms[k, :l0]), simplex_points(uniforms[k, l0:])
            pool.setdefault(mu0.tobytes() + mu1.tobytes(), (float(screened[k]), mu0, mu1))

    # min keeps the first of equal distances: the first in trial order.
    min_distance, worst_mu0, worst_mu1 = min(
        ((max_pair_gap(mixture_state(mu0, set0), mixture_state(mu1, set1)), mu0, mu1)
         for _, mu0, mu1 in pool.values()),
        key=lambda entry: entry[0],
    )
    return CertReport(
        margin=margin,
        max_violation=margin - min_distance,
        worst_mu0=worst_mu0,
        worst_mu1=worst_mu1,
        min_distance=min_distance,
        trials=trials,
    )
