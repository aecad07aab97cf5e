"""Saddle point of the measurement-vs-state-pair game.

The payoff is u(T, (rho, sigma)) = Tr(T rho) - Tr(T sigma).  The
measurement player maximizes the worst pair gap; the optimal margin is

    eps* = max_T min_{(rho, sigma) in S0 x S1} u(T, (rho, sigma)),

and by minimax duality it equals the smallest trace_distance between a
mixture of S0 and a mixture of S1 (half-norm convention, so no factor 2).

solve_saddle runs multiplicative-weights regret minimization (Hedge) for
the adversary over the pair set S0 x S1, against an exact best response.
Pair (i, j) has weight proportional to exp(-eta * sum_t gap_t(i, j)), and
gap_t(i, j) = Tr(T_t rho_i) - Tr(T_t sigma_j) splits into a part for i and
a part for j.  The weight of a pair is therefore the product mu0_i * mu1_j
of two Hedge vectors: mu0 over S0 with losses Tr(T_t rho_i), mu1 over S1
with gains Tr(T_t sigma_j), each renormalized on its own.  This is the
l0 x l1 pair distribution exactly, starting from the uniform one, and its
marginals are mu0 and mu1, so a round costs O(|S0| + |S1|) beyond the
eigendecomposition and no pair array is ever built.  The learning rate is
that of Hedge over all l0 * l1 pairs, since ln(l0 l1) = ln l0 + ln l1.

The measurement player answers the mixtures mu0, mu1 with the exact best
response (the positive-eigenspace projector of their difference, whose
value is the mixtures' trace distance).  Each round therefore emits one
certified upper bound on eps*: no measurement beats the round's mixture
distance.  The Hedge regret bound puts the mean of these round values,
and so their minimum, within O(1/sqrt(T)) of eps*; at checkpoints the
adversary's average over the current tail window is the one other mixture
tried.  Certified lower bounds come from explicit measurements: averages
of the responses played so far (valid POVM elements, being convex
combinations of projectors) evaluated against every pair.  The full
running average is the one that carries the O(1/sqrt(T)) guarantee; tail
averages restarted at doubling round numbers shed the poor early
responses and tighten the lower bound much faster in practice.  Every
reported bound is still the exact worst pair gap of a concrete
measurement.  The duality gap between the best bounds of the two kinds is
the convergence certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rng import SplitMix64
from .discrimination import min_separation_gap, separation_gap, trace_distance
from .errors import DimensionMismatchError, EmptySetError
from .hermitian import POSITIVE_CUTOFF, hermitian_eig, positive_part_projector
from .states import (
    PovmElement,
    StateSet,
    as_mixture_weights,
    mixture_state,
)

# Renormalization guard; only an explicit, huge learning rate reaches it.
_WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for solve_saddle.

    learning_rate "auto" resolves to sqrt(8 ln(|S0| |S1|) / max_rounds),
    the standard multiplicative-weights schedule for payoffs in [-1, 1] over
    the |S0| |S1| pairs.  The adversary plays that Hedge game as two
    factored vectors (see the module docstring) with the same rate: the
    product form is exact, so the schedule is unchanged.  The solver is
    deterministic.
    """

    max_rounds: int = 20000
    target_gap: float = 1e-4
    learning_rate: float | str = "auto"
    check_interval: int = 100

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not self.target_gap > 0.0:
            raise ValueError(f"target_gap must be positive, got {self.target_gap}")
        if self.check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {self.check_interval}")
        if self.learning_rate != "auto" and not float(self.learning_rate) > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    def resolve_learning_rate(self, n_pairs: int) -> float:
        if self.learning_rate == "auto":
            if n_pairs < 2:
                return 1.0  # single pair: weights are constant anyway
            return float(np.sqrt(8.0 * np.log(n_pairs) / self.max_rounds))
        return float(self.learning_rate)


@dataclass(frozen=True)
class Checkpoint:
    """Certified bounds after `round` rounds (both sides best-so-far)."""

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

    measurement is the best certified averaged measurement; lower_bound is
    its worst pair gap (an achievable margin), upper_bound the smallest
    mixture trace distance visited (no measurement can beat it).  mu0/mu1
    are the time averages of the adversary's two Hedge vectors, which are
    the marginals of its time-averaged pair distribution; best_mu0/best_mu1
    are the mixtures attaining upper_bound.
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


def _hedge_step(mu: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """One multiplicative-weights update of a distribution, renormalized."""
    mu = mu * factor
    total = mu.sum()
    if not total > _WEIGHT_FLOOR:
        return np.full(mu.shape[0], 1.0 / mu.shape[0])
    return mu / total


def solve_saddle(
    set0: StateSet,
    set1: StateSet,
    config: SolverConfig | None = None,
    checkpoint_callback: Callable[[int, PovmElement, float, float], None] | None = None,
) -> SaddleResult:
    """Compute the optimal separation margin with certified two-sided bounds.

    Deterministic: identical inputs and config give bit-identical results.
    Bounds are evaluated at every multiple of check_interval and at the
    final round; the run stops as soon as upper - lower <= target_gap.
    `checkpoint_callback(round, averaged_measurement, lower, upper)` is
    invoked at each evaluation with the full running average, mainly for
    instrumentation in tests.
    """
    cfg = config or SolverConfig()
    _check_instance(set0, set1)
    d = set0.dim
    stack0 = set0.stack()
    stack1 = set1.stack()
    l0, l1 = len(set0), len(set1)
    eta = cfg.resolve_learning_rate(l0 * l1)

    # Flattened views: mixture matrices and Tr(T rho_i) as single matmuls.
    flat0 = stack0.reshape(l0, d * d)
    flat1 = stack1.reshape(l1, d * d)
    flat0_t = np.ascontiguousarray(stack0.transpose(0, 2, 1).reshape(l0, d * d))
    flat1_t = np.ascontiguousarray(stack1.transpose(0, 2, 1).reshape(l1, d * d))

    identity_half = PovmElement(np.eye(d, dtype=np.complex128) / 2.0)
    best_t = identity_half
    best_lower = min_separation_gap(identity_half, set0, set1)

    # The adversary's pair weights are outer(mu0, mu1); both vectors, their
    # running sums and their tail-window sums stand in for l0 x l1 arrays.
    mu0 = np.full(l0, 1.0 / l0)
    mu1 = np.full(l1, 1.0 / l1)
    mu0_sum = np.zeros(l0)
    mu1_sum = np.zeros(l1)
    window_mu0_sum = np.zeros(l0)
    window_mu1_sum = np.zeros(l1)
    response_sum = np.zeros((d, d), dtype=np.complex128)
    window_sum = np.zeros((d, d), dtype=np.complex128)
    window_start = 1

    def mixture_difference(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
        diff = (m0 @ flat0 - m1 @ flat1).reshape(d, d)
        return (diff + diff.conj().T) / 2.0

    best_upper = np.inf
    best_mu0 = mu0
    best_mu1 = mu1
    history: list[Checkpoint] = []
    rounds_used = 0
    converged = False

    for t in range(1, cfg.max_rounds + 1):
        rounds_used = t
        if t >= 2 * window_start:
            window_start = t
            window_sum[:] = 0.0
            window_mu0_sum[:] = 0.0
            window_mu1_sum[:] = 0.0

        # Exact best response to the current mixtures: one Hermitian
        # eigendecomposition yields both the responding measurement and
        # the mixtures' trace distance (the round's upper bound).
        dec = hermitian_eig(mixture_difference(mu0, mu1))
        cols = dec.eigenvectors[:, dec.eigenvalues > POSITIVE_CUTOFF]
        response = cols @ cols.conj().T
        round_value = float(0.5 * np.abs(dec.eigenvalues).sum())

        if round_value < best_upper:
            best_upper = round_value
            best_mu0 = mu0
            best_mu1 = mu1

        response_sum += response
        window_sum += response
        mu0_sum += mu0
        mu1_sum += mu1
        window_mu0_sum += mu0
        window_mu1_sum += mu1

        # Adversary update: weight(i, j) *= exp(-eta * gap_t(i, j)), that is
        # mu0_i *= exp(-eta Tr(T rho_i)) and mu1_j *= exp(eta Tr(T sigma_j)).
        flat_response = response.reshape(d * d)
        mu0 = _hedge_step(mu0, np.exp(-eta * (flat0_t @ flat_response).real))
        mu1 = _hedge_step(mu1, np.exp(eta * (flat1_t @ flat_response).real))

        if t % cfg.check_interval == 0 or t == cfg.max_rounds:
            # The adversary's full-history average needs no check here:
            # the regret bound already puts the mean round value, and so
            # best_upper (the least round value), within O(1/sqrt(t)) of
            # eps*.  The tail window's average can still undercut it.
            window_len = t - window_start + 1
            if window_start > 1:
                m0 = window_mu0_sum / window_len
                m1 = window_mu1_sum / window_len
                lam = hermitian_eig(mixture_difference(m0, m1)).eigenvalues
                value = float(0.5 * np.abs(lam).sum())
                if value < best_upper:
                    best_upper = value
                    best_mu0 = m0
                    best_mu1 = m1

            averaged = PovmElement(response_sum / t)
            candidates = [averaged]
            if window_start > 1:
                candidates.append(PovmElement(window_sum / window_len))
            # The exact response to the best mixtures found so far is often
            # the sharpest certificate once the upper bound has settled.
            candidates.append(PovmElement(positive_part_projector(
                mixture_difference(best_mu0, best_mu1)
            )))
            for candidate in candidates:
                lower_t = min_separation_gap(candidate, set0, set1)
                if lower_t > best_lower:
                    best_lower = lower_t
                    best_t = candidate
            gap = best_upper - best_lower
            history.append(
                Checkpoint(round=t, lower_bound=best_lower, upper_bound=best_upper, gap=gap)
            )
            if checkpoint_callback is not None:
                checkpoint_callback(t, averaged, best_lower, best_upper)
            if gap <= cfg.target_gap:
                converged = True
                break

    return SaddleResult(
        measurement=best_t,
        mu0=mu0_sum / rounds_used,
        mu1=mu1_sum / rounds_used,
        lower_bound=best_lower,
        upper_bound=best_upper,
        gap=best_upper - best_lower,
        rounds_used=rounds_used,
        converged=converged,
        best_mu0=best_mu0,
        best_mu1=best_mu1,
        trace=tuple(history),
    )


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
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_instance(set0, set1)
    if t.dim != set0.dim:
        raise DimensionMismatchError(f"measurement dim {t.dim} != set dim {set0.dim}")
    margin = separation_gap(t, set0, set1).min_gap
    rng = SplitMix64(seed)
    l0, l1 = len(set0), len(set1)

    min_distance = np.inf
    worst_mu0 = None
    worst_mu1 = None
    for _ in range(trials):
        mu0 = as_mixture_weights(rng.simplex(l0), size=l0)
        mu1 = as_mixture_weights(rng.simplex(l1), size=l1)
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
