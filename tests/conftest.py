"""Shared fixtures and instance builders."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import statesep as ss
from statesep import hermitian, stateio
from statesep._rng import SplitMix64

# Property tests draw the same examples on every run (and so keep no
# example database); some examples decompose matrices up to d = 20.
settings.register_profile("statesep", derandomize=True, deadline=None)
settings.load_profile("statesep")

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
MIXED2 = np.eye(2, dtype=complex) / 2.0

# Half trace norm of |0><0| vs |+><+|, frozen from the by-hand eigenvalue
# computation: the difference [[0.5, -0.5], [-0.5, -0.5]] has eigenvalues
# +/- sqrt(0.5), so the distance is sqrt(0.5).
DIST_KET0_PLUS = 0.7071067811865476


def density(matrix) -> ss.DensityMatrix:
    return ss.validate_density(np.asarray(matrix, dtype=complex))


def state_set(*matrices) -> ss.StateSet:
    return ss.StateSet.from_matrices([np.asarray(m, dtype=complex) for m in matrices])


def set_document(sset: ss.StateSet) -> dict:
    """A state-set file's document in list-and-dict form, for tests to edit."""
    states = []
    for k, rho in enumerate(sset.states):
        entry = {} if sset.labels is None else {"label": sset.labels[k]}
        entry["matrix"] = stateio.matrix_to_jsonable(rho.matrix)
        states.append(entry)
    return {"dim": sset.dim, "states": states}


def measurement_document(t: ss.PovmElement) -> dict:
    """A measurement file's document in list-and-dict form, for tests to edit."""
    return {"dim": t.dim, "matrix": stateio.matrix_to_jsonable(t.matrix)}


def huge_state(dim: int) -> np.ndarray:
    """I/d with one off-diagonal pair whose parts, 1.5e308, are finite and
    whose modulus is not: eigenvalues 1/d +/- 2.1e308, past the largest float."""
    m = np.eye(dim, dtype=complex) / dim
    m[0, 1], m[1, 0] = 1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j
    return m


def random_hermitian(rng: np.random.RandomState, dim: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    return (m + m.conj().T) / 2.0


def random_instance(seed: int, dims=(2, 3, 4), max_states: int = 4):
    """Deterministic random instance; the convention the acceptance suite uses."""
    rng = SplitMix64(seed)
    dim = dims[rng.next_uint64() % len(dims)]
    l0 = 1 + rng.next_uint64() % max_states
    l1 = 1 + rng.next_uint64() % max_states

    def draw():
        rank = 1 + rng.next_uint64() % dim
        return ss.random_density(dim, rank, rng.next_uint64())

    set0 = ss.StateSet(dim=dim, states=tuple(draw() for _ in range(l0)))
    set1 = ss.StateSet(dim=dim, states=tuple(draw() for _ in range(l1)))
    return set0, set1


def wolfe_nearest_point(points: np.ndarray) -> tuple[float, float]:
    """Bracket [lo, hi] on the distance from the origin to the hull of the rows.

    Wolfe's nearest-point algorithm (Wolfe 1976), in floats: a corral of
    affinely independent points whose affine minimizer x lies inside
    their hull.  A major cycle adds the point least along x; a minor
    cycle drops points until the minimizer has positive weights.  hi = |x|
    (x is in the hull) and lo = min_k x . p_k / |x| (the hull lies beyond
    that plane), both up to rounding.
    """
    p = np.asarray(points, dtype=float)
    corral = [int(np.argmin((p * p).sum(axis=1)))]
    w = np.ones(1)
    x = p[corral[0]]
    reach = float(np.sqrt((p * p).sum(axis=1).max()))
    for _ in range(100 * len(p)):
        j = int(np.argmin(p @ x))
        norm = float(np.sqrt(x @ x))
        if (norm <= 1e-14 * reach or x @ x - p[j] @ x <= 1e-14 * norm * reach
                or j in corral or len(corral) > p.shape[1]):
            break
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            q = p[corral]
            m = len(corral)
            border = np.block([[q @ q.T, np.ones((m, 1))], [np.ones((1, m)), np.zeros((1, 1))]])
            v = np.linalg.solve(border, np.append(np.zeros(m), 1.0))[:m]
            if v.min() > 0.0:
                w = v
                break
            # Step from w towards v until the first weight reaches zero.
            falling = np.flatnonzero(v <= 0.0)
            ratios = w[falling] / (w[falling] - v[falling])
            w = w + ratios.min() * (v - w)
            w[falling[np.argmin(ratios)]] = 0.0
            corral = [c for c, wc in zip(corral, w) if wc > 0.0]
            w = w[w > 0.0]
        x = w @ p[corral]
    norm = float(np.sqrt(x @ x))
    lo = max(0.0, float((p @ x).min()) / norm) if norm > 0.0 else 0.0
    return lo, norm


def commuting_eps(p, q) -> Fraction:
    """eps* of two sets of commuting states, exactly.

    The rows of p and q are the states' spectra in one common basis, as
    nonnegative Fractions, ints or floats (each read exactly).  Pinching a
    measurement to that basis keeps every expectation, so eps* is the value
    of the linear program max over t in [0, 1]^d of min_i t.p_i -
    max_j t.q_j: with a = min_i t.p_i and b = max_j t.q_j, maximize a - b
    over t, a, b >= 0 subject to a - t.p_i <= 0, t.q_j - b <= 0 and
    t_k <= 1.  Every right-hand side is 0 or 1, so the slack basis is
    feasible, and a dense tableau simplex on Fractions runs from it.
    Bland's rule (Bland 1977), the least entering index and the least
    leaving basic index among tied ratios, keeps it from cycling.
    """
    p = [[Fraction(x) for x in row] for row in p]
    q = [[Fraction(x) for x in row] for row in q]
    d = len(p[0])
    rows = ([[-x for x in pi] + [1, 0] for pi in p] + [qj + [0, -1] for qj in q]
            + [[int(c == k) for c in range(d)] + [0, 0] for k in range(d)])
    m, n = len(rows), d + 2
    rhs = [0] * (len(p) + len(q)) + [1] * d
    tableau = [[Fraction(x) for x in row] + [Fraction(int(r == k)) for k in range(m)]
               + [Fraction(rhs[r])] for r, row in enumerate(rows)]
    # Reduced costs of (t, a, b, slacks), and minus the objective's value last.
    cost = [Fraction(0)] * d + [Fraction(1), Fraction(-1)] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((c for c in range(n + m) if cost[c] > 0), None)
        if enter is None:
            return -cost[-1]
        _, _, leave = min((row[-1] / row[enter], basis[r], r)
                          for r, row in enumerate(tableau) if row[enter] > 0)
        pivot = tableau[leave]
        pivot[:] = [x / pivot[enter] for x in pivot]
        for row in (*(row for r, row in enumerate(tableau) if r != leave), cost):
            factor = row[enter]
            if factor:
                row[:] = [x - factor * y for x, y in zip(row, pivot)]
        basis[leave] = enter


def qubit_bloch(sset: ss.StateSet) -> np.ndarray:
    """Bloch vectors (x, y, z) of unit-trace qubit states, one row each."""
    m = sset.stack()
    return np.stack([2.0 * m[:, 0, 1].real, -2.0 * m[:, 0, 1].imag,
                     (m[:, 0, 0] - m[:, 1, 1]).real], axis=1)


def reference_certify(t, set0, set1, trials, seed):
    """certify_forward as one max_pair_gap per trial, drawn from next_uint64."""
    rng = SplitMix64(seed)

    def simplex(size):
        draws = [-math.log(((rng.next_uint64() >> 11) + 0.5) * 2.0 ** -53)
                 for _ in range(size)]
        total = 0.0
        for e in draws:
            total += e
        return np.array([e / total for e in draws])

    best = (np.inf, None, None)
    for _ in range(trials):
        mu0, mu1 = simplex(len(set0)), simplex(len(set1))
        dist = ss.max_pair_gap(ss.mixture_state(mu0, set0), ss.mixture_state(mu1, set1))
        if dist < best[0]:
            best = (dist, mu0, mu1)
    margin = ss.separation_gap(t, set0, set1).min_gap
    return ss.CertReport(margin=margin, max_violation=margin - best[0], worst_mu0=best[1],
                         worst_mu1=best[2], min_distance=best[0], trials=trials)


def assert_same_report(a, b):
    assert (a.margin, a.max_violation, a.min_distance, a.trials) == (
        b.margin, b.max_violation, b.min_distance, b.trials)
    assert a.worst_mu0.tobytes() == b.worst_mu0.tobytes()
    assert a.worst_mu1.tobytes() == b.worst_mu1.tobytes()


@pytest.fixture
def qubits():
    return {
        "ket0": density(KET0),
        "ket1": density(KET1),
        "plus": density(PLUS),
        "minus": density(MINUS),
        "mixed": density(MIXED2),
    }


@pytest.fixture
def degenerate_instance():
    """S0 = {|0><0|, |1><1|}, S1 = {I/2}: margin is analytically zero."""
    return state_set(KET0, KET1), state_set(MIXED2)


@pytest.fixture
def replays(monkeypatch):
    """List that grows by one each time a kernel log is replayed into eigenvectors."""
    calls = []
    original = hermitian._replay

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hermitian, "_replay", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """List that grows by one per eigendecomposition: each runs one _householder_ql."""
    calls = []
    original = hermitian._householder_ql

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hermitian, "_householder_ql", counted)
    return calls
