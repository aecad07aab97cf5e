"""The cutting-plane master LP, solved by a dense tableau simplex.

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
for every other basic variable, the slack of a row; the tight rows R,
whose slacks are not basic (always including sum(w) = 1), are as many as
C.  The solver keeps one tableau B^-1 [A | I_R | e], with a row per basic
variable and a row of reduced costs, and a column per structural, a slot
per tight row's slack (a loose row's is a unit vector, so needs none) and
the right-hand side e, which is the slot of the row sum(w) = 1.
np.linalg.inv factorizes the first cut's basis; after that each pivot is
one rank-one update of the active columns in place, and no inverse is
formed again.  Rounding so carries from pivot to pivot; the tests hold
the tableau to a fresh factorization of its basis.  a and b are basic
from the first basis on and, being free, never leave it.

Adding a cut appends its column B^-1 a (the slots times a[R], plus each
loose row's entry at its slack's position) with its reduced cost, and
keeps the basis primal feasible, so each re-solve starts warm.  Pricing
is Dantzig's rule (the largest reduced cost); after a run of degenerate
pivots it switches to Bland's rule (Bland 1977: the lowest-numbered
candidate enters, and the lowest-numbered of the tied rows leaves),
which cannot cycle, until a pivot makes progress again.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError

# Reduced costs at or below _COST_TOL count as zero, and so do steps at or below
# _PIVOT_TOL * max(1, max |u_i|) over the basic structurals: rounding in a step
# grows with u.
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
    """The master LP over the cuts added so far, re-solved warm after each.

    table[j] is the tableau's column j: the n structurals, the slots of the
    rows in tight (R but sum(w) = 1, in the order they became tight), then
    the right-hand side.  Entry p <= eq of a column is its row for the
    basic variable at position p, named head[p]: k for structural k, ~r
    for row r's slack.  Entry eq + 1 is the column's reduced cost.
    """

    def __init__(self, l0: int, l1: int):
        self.l0 = l0
        self.eq = l0 + l1  # the row sum(w) = 1
        self.table = np.zeros((16, self.eq + 2))
        self.n = 2
        self.tight: list[int] = []
        self.head = ~np.arange(self.eq + 1)  # every slack basic at its row
        self.bounded = np.ones(self.eq + 1, dtype=bool)

    def add_cut(self, exp0: np.ndarray, exp1: np.ndarray) -> None:
        """Append the cut whose expectations over S0 and S1 are exp0, exp1."""
        col = np.concatenate([-exp0, exp1, [1.0]])
        n, end = self.n, self._end()
        t = self.table
        if n == 2:  # the first cut
            self._factorize(col)
        else:
            t[n + 1:end + 1] = t[n:end]
            t[n] = col[self.tight + [self.eq]] @ t[n + 1:end + 1]
            loose = self.head < 0
            t[n, :-1][loose] += col[~self.head[loose]]
            if not np.isfinite(col).all():
                t[n, -1] = np.nan  # as 0 * nan gives in y @ col: it never enters
        self.n += 1

    def solve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Optimal (w, mu0, mu1): the cut weights and the two mixtures.

        Each is clipped at zero and renormalized, so each lies on its
        simplex up to rounding.  Raises NoConvergenceError when a solve
        reaches _MAX_PIVOTS pivots.
        """
        head, n, m, degenerate = self.head, self.n, self.eq + 1, 0
        for pivot in range(_MAX_PIVOTS + 1):
            t, end, bland = self.table, n + len(self.tight) + 1, degenerate >= _DEGENERATE_RUN
            q = self._entering(t[:end - 1, m], bland)
            if q is None:
                break
            if pivot == _MAX_PIVOTS:
                raise NoConvergenceError(f"master LP not optimal after {_MAX_PIVOTS} pivots")

            # Ratio test over the bounded basic variables; a and b are free.
            steps = t[q, :m]
            scale = np.maximum.reduce(abs(steps), where=head >= 0, initial=1.0)
            candidates = (self.bounded & (steps > _PIVOT_TOL * scale)).nonzero()[0]
            if candidates.size == 0:
                raise NoConvergenceError("master LP found no pivot row for its entering variable")
            values = t[end - 1, candidates]
            values[values <= _ZERO_TOL] = 0.0
            ratios = values / steps[candidates]
            best = ratios.min()
            ties = candidates[ratios <= best + _ZERO_TOL]
            if bland:
                names = head[ties]
                leaving = ties[np.where(names >= 0, names, n + ~names).argmin()]
            else:
                leaving = ties[steps[ties].argmax()]
            degenerate = degenerate + 1 if best <= _PIVOT_TOL else 0
            self._pivot(q, int(leaving))

        t, end, structural = self.table, n + len(self.tight) + 1, (head >= 0).nonzero()[0]
        w = np.zeros(n)
        w[head[structural]] = t[end - 1, structural]
        mu = np.zeros(m)
        mu[self.tight] = -t[n:end - 1, m]
        return _normalized(w[2:]), _normalized(mu[:self.l0]), _normalized(mu[self.l0:self.eq])

    def _end(self) -> int:
        """One past the right-hand side, keeping room for one more column."""
        end = self.n + len(self.tight) + 1
        if end == self.table.shape[0]:
            self.table = np.concatenate([self.table, np.zeros_like(self.table)])
        return end

    def _factorize(self, col: np.ndarray) -> None:
        """The tableau of the first basis: all weight on the first cut, a and
        b at its extreme rows, so every slack is >= 0."""
        eq = self.eq
        rows = [int(np.argmax(col[:self.l0])), self.l0 + int(np.argmax(col[self.l0:eq])), eq]
        self.tight = rows[:2]
        self.head[rows] = [_A, _B, 2]
        self.bounded[rows[:2]] = False  # a and b, free, never leave
        # [A | I_R | e] over the columns a, b, the cut, then the slots.
        full = np.zeros((eq + 1, 6))
        full[:self.l0, _A], full[self.l0:eq, _B], full[:, 2] = 1.0, -1.0, col
        full[rows, [3, 4, 5]] = 1.0
        x = np.linalg.inv(full[rows, :3]) @ full[rows]
        tableau = full - full[:, :3] @ x
        tableau[rows] = x
        self.table[:6, :-1] = tableau.T
        self.table[:6, -1] = np.array([1.0, -1.0, 0, 0, 0, 0]) - (x[0] - x[1])  # c - c_B x

    def _entering(self, gains: np.ndarray, bland: bool) -> int | None:
        """The entering column, or None at optimality.  A NaN gain never
        enters: it compares false against _COST_TOL."""
        improving = gains > _COST_TOL
        if not bland:
            k = int(np.where(improving, gains, -np.inf).argmax())
            return k if improving[k] else None
        # Structurals are named by column, the slot of row r n + r.
        candidates = improving.nonzero()[0]
        if candidates.size == 0 or candidates[0] < self.n:
            return int(candidates[0]) if candidates.size else None
        slots = candidates - self.n
        return self.n + int(slots[np.array(self.tight)[slots].argmin()])

    def _pivot(self, q: int, p: int) -> None:
        """Column q enters at position p: one rank-one update of the tableau."""
        n, head, end = self.n, self.head, self._end()
        u = self.table[q].copy()
        entering = q if q < n else ~self.tight[q - n]
        if head[p] < 0:
            # The leaving slack's row becomes tight, and that slack's column
            # e_p its slot: the entering slack's, or a new one before the
            # right-hand side.
            slot = q
            if q < n:
                self.table[end] = self.table[end - 1]
                slot, end = end - 1, end + 1
                self.tight.append(~head[p])
            else:
                self.tight[q - n] = ~head[p]
            self.table[slot] = 0.0
            self.table[slot, p] = 1.0
        t = self.table
        row = t[:end, p] / u[p]
        t[:end] -= row[:, None] * u
        t[:end, p] = row
        if q >= n and head[p] >= 0:
            # A structural leaves, and the entering slack's row is loose:
            # its slot, e_p now, is dropped.
            t[q:end - 1] = t[q + 1:end]
            del self.tight[q - n]
        head[p] = entering


def _normalized(v: np.ndarray) -> np.ndarray:
    v = np.maximum(v, 0.0)
    return v / v.sum()
