"""Saddle point of the measurement-vs-state-pair game.

The payoff is u(T, (rho, sigma)) = Tr(T rho) - Tr(T sigma).  The
measurement player maximizes the worst pair gap; the optimal margin is

    eps* = max_T min_{(rho, sigma) in S0 x S1} u(T, (rho, sigma)),

and by minimax duality it equals the smallest trace_distance between a
mixture of S0 and a mixture of S1 (half-norm convention, so no factor 2).

solve_saddle minimizes f(mu0, mu1) = trace distance of the two mixtures,
f(mu) = max_{0 <= T <= I} Tr(T Delta(mu)), by Kelley's cutting-plane
method (Kelley 1960), which for this game is the double oracle of
McMahan, Gordon & Blum (2003).  Each iteration queries one mixture pair:
one Hermitian eigendecomposition of Delta(mu) gives f(mu) exactly, a
certified upper bound on eps*, and the positive-part projector T_k that
attains it, the new cut.  Every cut is a linear minorant of f, so the
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
the LP being solved exactly: a poor master solution only slows the
convergence of the duality gap, the convergence certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigvalsh

from ._master import Master
from ._rng import SplitMix64
# separation_gap is not called here; it stays bound because the benchmark's
# tracer (perfbench/tracing.py) wraps statesep.saddle.separation_gap.
from .discrimination import min_separation_gap, separation_gap, trace_distance
from .errors import BadConfigError, BadWeightsError, DimensionMismatchError, EmptySetError
from .hermitian import POSITIVE_CUTOFF, hermitian_eig
from .states import WEIGHT_SUM_TOL, PovmElement, StateSet, mixture_state

# certify_forward draws and screens its trials in blocks of this many
# weights, or matrix entries where a trial's matrix has more of them.
_CERTIFY_BLOCK = 1 << 14
# Screened distances within _screen_slack(d, l0 + l1) of the smallest are
# recomputed exactly; this is the share of eigvalsh and hermitian_eig in
# it per unit of d.
_SCREEN_SLACK = 4e-13


def _screen_slack(d: int, states: int) -> float:
    """How far a screened distance may lie above the least exact one.

    Two errors separate a trial's screened distance from the one
    trace_distance gives it; let u = 2^-53.
    - The kernels.  Each keeps every eigenvalue within 1e-13 * max(1,
      ||H||_F) of the exact ones of the matrix it is given: hermitian_eig
      by its stopping rule (off-diagonal norm at most 1e-13 * ||H||_F)
      up to its rotations' rounding, eigvalsh by LAPACK's backward-error
      bound p(d) u ||H||_2, p a modestly growing function of d (LAPACK
      Users' Guide, 3rd ed., 1999, section 4.7); a property test pins the
      two within that of each other.  A mixture difference has
      ||H||_F <= 2, so each distance is within d * 1e-13 of that matrix's
      exact one.
    - The matrices.  The screen sums a block's mixtures by real matmuls on
      the stacks' float64 view, mixture_state by an einsum.  Each real
      component of a mixture sums `states` products of weights (summing
      to 1) and entries of modulus at most 1, in some order, so it is
      within gamma_states (Higham 2002, eq. 3.5) of exact, and each entry
      of a difference within (states + 1) u.  The two differences then
      differ by at most 2 sqrt(2) (states + 1) u per entry, d times that
      in Frobenius norm, and their exact distances by at most sqrt(d) / 2
      times the Frobenius norm of that: sqrt(2) d^1.5 (states + 1) u.
    With e = 2d * 1e-13 + sqrt(2) d^1.5 (states + 1) u, the trial with the
    least exact distance screens within 2e of the least screened
    distance.  The slack is 2e, with 3 in place of 2 sqrt(2) to spare for
    weights and entries that exceed 1 by validation's 1e-9 tolerances.
    """
    return d * (_SCREEN_SLACK + 3.0 * math.sqrt(d) * (states + 1) * 2.0 ** -53)


@dataclass(frozen=True)
class SolverConfig:
    """Limits for solve_saddle.

    max_rounds caps the cutting-plane iterations (one eigendecomposition
    and one master re-solve each); target_gap, finite and positive, is the
    duality gap at which the solve stops.  The solver is deterministic.
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

    violation = margin - trace_distance(mixtures); positive beyond 1e-9
    would contradict the margin being achievable.
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
    mixture trace distance queried (no measurement can beat it).  mu0/mu1
    are the mixtures of the last iteration: the uniform pair at the first,
    the master's optimal mixtures after.  best_mu0/best_mu1 are the
    mixtures attaining upper_bound.  rounds_used counts iterations, and
    trace holds one checkpoint per iteration.
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
        # One eigendecomposition yields the query's trace distance (an
        # upper bound) and the projector attaining it (the new cut).
        diff = (mu0 @ flat0 - mu1 @ flat1).reshape(d, d)
        dec = hermitian_eig((diff + diff.conj().T) / 2.0)
        value = float(0.5 * np.abs(dec.eigenvalues).sum())
        if value < best_upper:
            best_upper = value
            best_mu0 = mu0
            best_mu1 = mu1
        cols = dec.eigenvectors[:, dec.eigenvalues > POSITIVE_CUTOFF]
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
    """Sample mixture pairs and compare their trace distance to T's margin.

    Any POVM element whose worst pair gap is eps forces every mixture of
    set0 to stay at trace distance >= eps from every mixture of set1; this
    samples `trials` uniform (Dirichlet(1,...,1)) mixture pairs from the
    documented SplitMix64 stream (mu0's exponentials drawn before mu1's,
    per trial) and reports the largest violation found, expected <= 1e-9.

    The trials are screened, then the closest pair is computed exactly.
    Each block of trials takes one array draw, and its mixture differences
    (two real matmuls on the stacks' float64 view) go through one batched
    LAPACK eigvalsh call.  Every trial whose screened distance lies within
    a rounding slack of the smallest is then recomputed with mixture_state
    and trace_distance, in trial order, and the first strict minimum of
    those values is reported, so no reported number comes from eigvalsh.
    The slack covers eigvalsh's backward error (LAPACK Users' Guide,
    section 4.7) and hermitian_eig's stopping rule, and the two ways of
    summing a mixture (_screen_slack), so the report is the one a
    trial-by-trial loop with trace_distance gives; normally a single trial
    is recomputed.  trials below 1 raises BadConfigError.
    """
    if trials < 1:
        raise BadConfigError(f"trials must be >= 1, got {trials}")
    _check_instance(set0, set1)
    if t.dim != set0.dim:
        raise DimensionMismatchError(f"measurement dim {t.dim} != set dim {set0.dim}")
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
    # trial order, keyed by its weights: a repeat (every trial, when both
    # sets are singletons) can never beat its first occurrence.
    pool: dict[bytes, tuple[float, np.ndarray, np.ndarray]] = {}
    for start in range(0, trials, per_block):
        w0, w1 = rng.simplex_pairs(min(per_block, trials - start), l0, l1)
        _check_weight_rows(w0, start)
        _check_weight_rows(w1, start)
        diff = (w0 @ real0 - w1 @ real1).view(np.complex128).reshape(-1, d, d)
        lam = eigvalsh((diff + diff.conj().transpose(0, 2, 1)) / 2.0)
        screened = 0.5 * np.abs(lam).sum(axis=1)
        best = min(best, float(screened.min()))
        pool = {key: entry for key, entry in pool.items() if entry[0] <= best + slack}
        for k in np.flatnonzero(screened <= best + slack):
            key = w0[k].tobytes() + w1[k].tobytes()
            pool.setdefault(key, (float(screened[k]), w0[k].copy(), w1[k].copy()))

    min_distance = np.inf
    worst_mu0 = None
    worst_mu1 = None
    for _, mu0, mu1 in pool.values():
        dist = trace_distance(mixture_state(mu0, set0), mixture_state(mu1, set1))
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
