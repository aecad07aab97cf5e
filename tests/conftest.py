"""Shared fixtures and instance builders."""

import math

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
