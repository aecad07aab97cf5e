"""The cutting-plane master LP, solved by a small dense revised simplex.

Given cuts T_1..T_K with expectations A0[i, k] = Tr(T_k rho_i) and
A1[j, k] = Tr(T_k sigma_j), the master is

    max  a - b   over w >= 0, sum(w) = 1, a and b free,
    s.t. a - (A0 w)_i <= 0   for each i in S0,
         (A1 w)_j - b <= 0   for each j in S1,

that is max_{w in simplex} min_i (A0 w)_i - max_j (A1 w)_j.  The duals of
the S0 and S1 rows are the mixtures (mu0, mu1) minimizing the cut model
max_k Tr(T_k (rho(mu0) - sigma(mu1))); LP duality makes the two values
equal.

A basis holds the basic structural columns C (cut weights, a and b) and,
for every other basic variable, the slack of a row.  The rows R whose
slacks are not basic (the tight rows, always including sum(w) = 1) have
as many members as C, and the basis matrix is nonsingular exactly when
its square block M = A[R, C] is.  So the solver inverts only M, at most
K + 2 square, never an (l0 + l1 + 1)-square basis.  Each new basis is
factorized afresh, so no rounding carries from one pivot to the next,
and the factorization is kept across re-solves.  a and b are basic from
the first basis on and, being free, never leave it.

Adding a cut appends a column and keeps the current basis primal
feasible, so each re-solve starts warm, and its first pricing reuses
the kept factorization.  Pricing is Dantzig's rule (the
largest reduced cost); after a run of degenerate pivots it switches to
Bland's rule (Bland 1977: the lowest-numbered candidate enters, and the
lowest-numbered of the tied rows leaves), which cannot cycle, until a
pivot makes progress again.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError

# Reduced costs at or below _COST_TOL count as zero, and so do steps at or below
# _PIVOT_TOL * max(1, max |u_i|): rounding in a step grows with u.
_COST_TOL = 1e-9
_PIVOT_TOL = 1e-9
# Basic values at or below this count as zero, and step ratios this close
# to the least one tie with it.  Bland's rule excludes cycling only when
# ties are ties: broken by rounding noise instead, it cycled on a
# 64 + 64 state instance at d = 8.
_ZERO_TOL = 1e-12
# Consecutive degenerate pivots before pricing falls back to Bland's rule.
_DEGENERATE_RUN = 10
# Pivots allowed in one solve.
_MAX_PIVOTS = 5000

_A, _B = 0, 1  # the free columns; cut k is column k + 2


class Master:
    """The master LP over the cuts added so far, re-solved warm after each."""

    def __init__(self, l0: int, l1: int):
        self.l0 = l0
        self.eq = l0 + l1  # the row sum(w) = 1
        self.cols = np.zeros((l0 + l1 + 1, 16))
        self.cols[:l0, _A] = 1.0
        self.cols[l0:self.eq, _B] = -1.0
        self.n = 2
        self.basic: list[int] = []  # C, structural column indices
        self.tight: list[int] = []  # R, row indices, as many as C
        self._basis: _Basis | None = None  # C and R's factorization, once made

    def add_cut(self, exp0: np.ndarray, exp1: np.ndarray) -> None:
        """Append the cut whose expectations over S0 and S1 are exp0, exp1."""
        if self.n == self.cols.shape[1]:
            self.cols = np.concatenate([self.cols, np.zeros_like(self.cols)], axis=1)
        col = self.cols[:, self.n]
        col[:self.l0] = -exp0
        col[self.l0:self.eq] = exp1
        col[self.eq] = 1.0
        if not self.basic:
            # All weight on the first cut, a and b at its extreme rows:
            # every slack is then >= 0.
            self._basis = None
            self.basic = [self.n, _A, _B]
            self.tight = [self.eq, int(np.argmin(exp0)), self.l0 + int(np.argmax(exp1))]
        self.n += 1

    def solve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Optimal (w, mu0, mu1): the cut weights and the two mixtures.

        Each is clipped at zero and renormalized, so each lies on its
        simplex up to rounding.  Raises NoConvergenceError when a solve
        reaches _MAX_PIVOTS pivots.
        """
        cols, n = self.cols, self.n
        cost = np.zeros(n)
        cost[_A], cost[_B] = 1.0, -1.0
        degenerate = 0
        for pivot in range(_MAX_PIVOTS + 1):
            if self._basis is None:
                self._basis = _Basis(self)
            f = self._basis

            # Price the structural columns (variable k) and the slacks of
            # the tight rows (variable n + r); the equality row has none.
            reduced = cost - f.y @ cols[f.rows, :n]
            reduced[f.basic] = 0.0
            names = np.concatenate([np.arange(n), n + f.rows])
            bland = degenerate >= _DEGENERATE_RUN
            entering = _entering(np.concatenate([reduced, f.slack]), names, bland)
            if entering is None:
                break
            if pivot == _MAX_PIVOTS:
                raise NoConvergenceError(f"master LP not optimal after {_MAX_PIVOTS} pivots")

            # Direction u = B^-1 a_q over the basic structurals and the
            # slacks of the loose rows.
            if entering < n:
                column = cols[:, entering]
            else:
                column = np.zeros(cols.shape[0])
                column[entering - n] = 1.0
            u = f.inverse @ column[f.rows]
            steps = np.concatenate([u, column[f.loose_rows] - f.loose_cols @ u])

            # Ratio test over the bounded basic variables; a and b are free.
            candidates = np.flatnonzero(f.bounded & (steps > _PIVOT_TOL * max(1.0, abs(u).max())))
            if candidates.size == 0:
                raise NoConvergenceError("master LP found no pivot row for its entering variable")
            ratios = f.values[candidates] / steps[candidates]
            best = ratios.min()
            ties = candidates[ratios <= best + _ZERO_TOL]
            leaving_names = np.concatenate([f.basic, n + f.loose_rows])[ties]
            if bland:
                leaving = leaving_names.min()
            else:
                leaving = leaving_names[np.argmax(steps[ties])]
            degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
            self._exchange(entering, int(leaving), n)

        w = np.zeros(n)
        w[f.basic] = f.x
        mu = np.zeros(cols.shape[0])
        mu[f.rows] = f.y
        return (
            _normalized(w[2:]),
            _normalized(mu[:self.l0]),
            _normalized(mu[self.l0:self.eq]),
        )

    def _exchange(self, entering: int, leaving: int, n: int) -> None:
        """Update C and R for one pivot; variables are numbered as in solve."""
        self._basis = None
        if entering < n and leaving < n:
            self.basic[self.basic.index(leaving)] = entering
        elif entering < n:
            self.basic.append(entering)
            self.tight.append(leaving - n)
        elif leaving >= n:
            self.tight[self.tight.index(entering - n)] = leaving - n
        else:
            del self.basic[self.basic.index(leaving)]
            del self.tight[self.tight.index(entering - n)]


class _Basis:
    """The factorization of one basis, and what pricing and ratio tests read of it.

    None of it depends on the number of cut columns, so adding a cut keeps
    it: the first pivot of a warm re-solve inverts nothing.
    """

    __slots__ = ("rows", "basic", "inverse", "x", "y", "slack", "loose_rows",
                 "loose_cols", "values", "bounded")

    def __init__(self, master: Master):
        self.rows = np.array(master.tight)
        self.basic = np.array(master.basic)
        basic_cols = master.cols[:, self.basic]
        self.inverse = np.linalg.inv(basic_cols[self.rows])
        self.x = self.inverse[:, master.tight.index(master.eq)]  # the right-hand side is e_eq
        cost = np.where(self.basic == _A, 1.0, np.where(self.basic == _B, -1.0, 0.0))
        self.y = cost @ self.inverse
        self.slack = np.where(self.rows == master.eq, 0.0, -self.y)
        loose = np.ones(master.cols.shape[0], dtype=bool)
        loose[self.rows] = False
        self.loose_rows = np.flatnonzero(loose)
        self.loose_cols = basic_cols[self.loose_rows]
        # The basic structurals, then the slacks of the loose rows.
        self.values = np.concatenate([self.x, -(self.loose_cols @ self.x)])
        self.values[self.values <= _ZERO_TOL] = 0.0
        self.bounded = np.concatenate([self.basic > _B, np.ones(self.loose_rows.size, bool)])


def _entering(gains: np.ndarray, names: np.ndarray, bland: bool) -> int | None:
    """The improving variable to enter, or None at optimality.

    A NaN gain never enters: it compares false against _COST_TOL.
    """
    improving = gains > _COST_TOL
    if bland:
        candidates = names[improving]
        return int(candidates.min()) if candidates.size else None
    k = int(np.argmax(np.where(improving, gains, -np.inf)))
    return int(names[k]) if improving[k] else None


def _normalized(v: np.ndarray) -> np.ndarray:
    v = np.maximum(v, 0.0)
    return v / v.sum()
