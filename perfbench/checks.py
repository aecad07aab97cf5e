"""Checks on the CLI's output, recomputed apart from the program.

Everything here reads files and stdout with the plain `json` module and
recomputes spectra with `numpy.linalg.eigvalsh` (LAPACK), a code path
independent of the package's Jacobi kernel.  Nothing is compared against a
stored copy of earlier output: each check is a property the method must
have on any input.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9  # the package's own certificate tolerance


class CheckError(Exception):
    """An output that contradicts the recomputation or the method's properties."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(e["re"], e["im"]) for e in row] for row in rows])


def read_states(path: str) -> np.ndarray:
    """A state-set file as a (count, dim, dim) array."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.stack([_matrix(s["matrix"]) for s in doc["states"]])


def read_witness(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return _matrix(json.load(fh)["matrix"])


def _weights(values, size: int, what: str) -> np.ndarray:
    w = np.asarray(values, dtype=float)
    _require(w.shape == (size,), f"{what}: {w.shape[0]} weights for {size} states")
    _require(float(w.min()) >= 0.0 and abs(float(w.sum()) - 1.0) <= TOL,
             f"{what} is not a probability vector")
    return w


def _close(a: float, b: float, what: str) -> None:
    _require(abs(a - b) <= TOL, f"{what}: reported {a!r}, recomputed {b!r}")


def min_pair_gap(t: np.ndarray, set0: np.ndarray, set1: np.ndarray) -> float:
    exp0 = np.einsum("ab,iba->i", t, set0).real
    exp1 = np.einsum("ab,jba->j", t, set1).real
    return float((exp0[:, None] - exp1[None, :]).min())


def mixture_distance(mu0, mu1, set0: np.ndarray, set1: np.ndarray) -> float:
    diff = np.einsum("i,iab->ab", mu0, set0) - np.einsum("j,jab->ab", mu1, set1)
    return float(0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


def check_solve(stdout: str, witness: np.ndarray, set0: np.ndarray,
                set1: np.ndarray, target_gap: float) -> dict:
    """Check one `solve --json` document against its inputs and witness file."""
    result = json.loads(stdout)["result"]
    _require(result["converged"] is True, "solver did not converge")
    from_payload = _matrix(result["measurement"]["matrix"])
    _require(from_payload.shape == witness.shape and np.array_equal(from_payload, witness),
             "witness file differs from the reported measurement")
    _require(float(np.abs(witness - witness.conj().T).max()) <= TOL,
             "witness is not Hermitian")
    spectrum = np.linalg.eigvalsh((witness + witness.conj().T) / 2.0)
    _require(spectrum[0] >= -TOL and spectrum[-1] <= 1.0 + TOL,
             f"witness spectrum [{spectrum[0]!r}, {spectrum[-1]!r}] outside [0, 1]")
    lower, upper = result["lower_bound"], result["upper_bound"]
    _close(lower, min_pair_gap(witness, set0, set1), "lower_bound")
    mu0 = _weights(result["best_mu0"], len(set0), "best_mu0")
    mu1 = _weights(result["best_mu1"], len(set1), "best_mu1")
    _close(upper, mixture_distance(mu0, mu1, set0, set1), "upper_bound")
    _require(lower <= upper + TOL, f"lower bound {lower!r} above upper {upper!r}")
    _close(result["gap"], upper - lower, "gap")
    _require(result["gap"] <= target_gap, f"gap {result['gap']!r} above {target_gap!r}")
    for point in result["trace"]:
        _require(point["lower_bound"] <= point["upper_bound"] + TOL,
                 f"weak duality broken at round {point['round']}")
    return result


def check_certify(stdout: str, witness: np.ndarray, set0: np.ndarray,
                  set1: np.ndarray, trials: int) -> dict:
    """Check one `certify --json` document against its inputs and witness."""
    result = json.loads(stdout)["result"]
    _require(result["trials"] == trials, f"{result['trials']} trials, asked {trials}")
    margin = result["margin"]
    _close(margin, min_pair_gap(witness, set0, set1), "margin")
    mu0 = _weights(result["worst_mu0"], len(set0), "worst_mu0")
    mu1 = _weights(result["worst_mu1"], len(set1), "worst_mu1")
    distance = result["min_distance"]
    _close(distance, mixture_distance(mu0, mu1, set0, set1), "min_distance")
    _require(distance >= margin - TOL,
             f"mixture distance {distance!r} under margin {margin!r}")
    _close(result["max_violation"], margin - distance, "max_violation")
    _require(result["certified"] is True, "certify reports a violation")
    return result
