"""Exhaustive grid oracles for small instances.

Both oracles avoid the package's own eigensolver on purpose: the qubit
grid uses closed-form Bloch algebra and the mixture grid numpy's
LAPACK-backed eigvalsh, so agreement with the solver is a check between
two independent code paths.  They are brute force and meant for tests at
small dimension and tiny set sizes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .discrimination import _require_same_dim
from .errors import BadGridStepError, SetTooLargeError, WrongDimensionError
from .states import StateSet

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)
# Feasibility slack for grid points whose radius lands on the boundary
# (projectors live at alpha = r = 1/2) up to float rounding.
_EDGE_SLACK = 1e-12


def _bloch_rows(stack: np.ndarray) -> np.ndarray:
    """Re Tr(sigma_a M) for each matrix in the (l, 2, 2) stack; shape (l, 3)."""
    return np.stack(
        [np.einsum("ab,iba->i", p, stack).real for p in _PAULIS], axis=1
    )


def brute_force_epsilon_d2(set0: StateSet, set1: StateSet, grid_step: float) -> float:
    """Best worst-pair gap over a grid of qubit POVM elements.

    Candidates are T = alpha I + x X + y Y + z Z with alpha on a grid_step
    grid in [0, 1] and (x, y, z) on a grid_step grid in [-1, 1]^3, kept
    when both eigenvalues alpha +/- sqrt(x^2+y^2+z^2) lie in [0, 1].  The
    pair gap is linear in (alpha, x, y, z) with coefficients
    (Tr D, Tr XD, Tr YD, Tr ZD) for D = rho - sigma, each bounded by 2 in
    magnitude, so the returned maximum sits within O(grid_step) of the true
    optimal margin (and never above it by more than float noise).
    """
    _require_same_dim(set0.dim, set1.dim)
    if set0.dim != 2:
        raise WrongDimensionError(f"qubit oracle called with dim {set0.dim}")
    if not 0.0 < grid_step <= 0.1:
        raise BadGridStepError(f"grid_step must be in (0, 0.1], got {grid_step}")

    stack0 = set0.stack()
    stack1 = set1.stack()
    # Pair coefficients: gap(T) = alpha * t0 + (x, y, z) . b, per pair.
    t0 = (
        np.einsum("iaa->i", stack0).real[:, None]
        - np.einsum("jaa->j", stack1).real[None, :]
    ).reshape(-1)
    b0 = _bloch_rows(stack0)
    b1 = _bloch_rows(stack1)
    b = (b0[:, None, :] - b1[None, :, :]).reshape(-1, 3)

    n = int(np.floor(1.0 / grid_step + 1e-9))
    axis = (np.arange(2 * n + 1) - n) * grid_step
    x, y, z = (g.reshape(-1) for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    radius = np.sqrt(x * x + y * y + z * z)
    directional = b @ np.stack([x, y, z])  # (pairs, grid points)

    best = -np.inf
    for k in range(n + 1):
        alpha = k * grid_step
        feasible = radius <= min(alpha, 1.0 - alpha) + _EDGE_SLACK
        if not feasible.any():
            continue
        gaps = alpha * t0[:, None] + directional[:, feasible]
        best = max(best, float(gaps.min(axis=0).max()))
    return best


def _compositions(total: int, parts: int) -> np.ndarray:
    """All tuples of `parts` non-negative ints summing to `total`, as rows."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        row = []
        for bar in bars:
            row.append(bar - prev - 1)
            prev = bar
        row.append(total + parts - 2 - prev)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def mixture_grid_oracle(set0: StateSet, set1: StateSet, grid_step: float) -> float:
    """Smallest mixture-vs-mixture trace distance over gridded simplices.

    Both probability simplices are discretized into compositions of
    n = round(1/grid_step), i.e. weights k/n.  The result upper-bounds the
    true minimum and, since the trace distance is 1-Lipschitz in each
    weight vector under total-variation perturbation, lies within
    O(grid_step) of it.  Cost grows combinatorially; set sizes are capped
    at 4.
    """
    _require_same_dim(set0.dim, set1.dim)
    if len(set0) > 4 or len(set1) > 4:
        raise SetTooLargeError(
            f"set sizes {len(set0)}, {len(set1)} exceed the oracle cap of 4"
        )
    if not 0.0 < grid_step <= 0.25:
        raise BadGridStepError(f"grid_step must be in (0, 0.25], got {grid_step}")

    n = int(round(1.0 / grid_step))
    w0 = _compositions(n, len(set0)).astype(np.float64) / n
    w1 = _compositions(n, len(set1)).astype(np.float64) / n
    mixtures0 = np.einsum("mi,iab->mab", w0, set0.stack())
    mixtures1 = np.einsum("nj,jab->nab", w1, set1.stack())
    best = np.inf
    for row in mixtures0:
        diffs = row[None, :, :] - mixtures1
        lam = np.linalg.eigvalsh(diffs)
        best = min(best, float(0.5 * np.abs(lam).sum(axis=1).min()))
    return best
