"""The cutting-plane master LP against scipy's HiGHS and against its own
basis factorized afresh, and its limits.

HiGHS (through scipy.optimize.linprog) serves only as a test oracle, the
way numpy's eigvalsh serves for hermitian_eig; scipy is a test extra,
not a dependency of the package.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statesep as ss
from statesep import _master
from statesep.errors import NoConvergenceError

from conftest import KET0, KET1, state_set


def highs(a0, a1):
    """Value and S0/S1 row duals of the master by linprog(method="highs")."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    (l0, k), l1 = a0.shape, a1.shape[0]
    # Variables (w_1..w_K, a, b); maximize a - b.
    a_ub = np.block([
        [-a0, np.ones((l0, 1)), np.zeros((l0, 1))],
        [a1, np.zeros((l1, 1)), -np.ones((l1, 1))],
    ])
    res = linprog(
        np.r_[np.zeros(k), -1.0, 1.0],
        A_ub=a_ub, b_ub=np.zeros(l0 + l1),
        A_eq=np.r_[np.ones(k), 0.0, 0.0][None, :], b_eq=[1.0],
        bounds=[(0, None)] * k + [(None, None)] * 2,
        method="highs",
    )
    assert res.status == 0, res.message
    duals = -res.ineqlin.marginals
    return -res.fun, duals[:l0], duals[l0:]


def check_against_highs(a0, a1, compare_duals):
    """Add the cuts one at a time, re-solving warm; check every prefix."""
    master = _master.Master(a0.shape[0], a1.shape[0])
    for k in range(a0.shape[1]):
        master.add_cut(a0[:, k], a1[:, k])
        w, mu0, mu1 = master.solve()
        value, want0, want1 = highs(a0[:, :k + 1], a1[:, :k + 1])
        for v in (w, mu0, mu1):
            assert v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12
        # Primal and dual objectives both meet the optimum: each side is
        # optimal, whichever optimal vertex a degenerate LP settles on.
        primal = (a0[:, :k + 1] @ w).min() - (a1[:, :k + 1] @ w).max()
        dual = (mu0 @ a0[:, :k + 1] - mu1 @ a1[:, :k + 1]).max()
        assert primal == pytest.approx(value, abs=1e-9)
        assert dual == pytest.approx(value, abs=1e-9)
        if compare_duals:
            np.testing.assert_allclose(mu0, want0, rtol=0, atol=1e-7)
            np.testing.assert_allclose(mu1, want1, rtol=0, atol=1e-7)


class TestAgainstHighs:
    @pytest.mark.parametrize(
        "l0, l1, cuts", [(3, 4, 6), (6, 2, 9), (10, 10, 20), (1, 5, 5), (5, 1, 5), (40, 30, 25)]
    )
    def test_random_cuts(self, l0, l1, cuts):
        rng = np.random.RandomState(l0 * 100 + l1)
        check_against_highs(rng.uniform(size=(l0, cuts)), rng.uniform(size=(l1, cuts)), True)

    @pytest.mark.parametrize("seed", range(4))
    def test_coarse_cuts(self, seed):
        # Entries in {0, 1/2, 1}, as projectors give on basis states: ties
        # everywhere, and many degenerate pivots.
        rng = np.random.RandomState(seed)
        l0, l1 = 1 + rng.randint(8), 1 + rng.randint(8)
        a0 = rng.randint(3, size=(l0, 12)) / 2.0
        a1 = rng.randint(3, size=(l1, 12)) / 2.0
        check_against_highs(a0, a1, False)

    def test_duplicate_cuts(self):
        rng = np.random.RandomState(7)
        a0, a1 = rng.uniform(size=(4, 5)), rng.uniform(size=(3, 5))
        check_against_highs(np.repeat(a0, 2, axis=1), np.repeat(a1, 2, axis=1), False)

    @pytest.mark.parametrize("l0, l1", [(1, 1), (1, 4), (4, 1)])
    def test_single_state_sides(self, l0, l1):
        rng = np.random.RandomState(l0 + 10 * l1)
        check_against_highs(rng.uniform(size=(l0, 6)), rng.uniform(size=(l1, 6)), False)

    def test_all_equal_cuts(self):
        check_against_highs(np.full((3, 4), 0.5), np.full((2, 4), 0.5), False)

    def test_rows_apart_by_the_validators_slack(self):
        # Two identical S0 states, and S1 states whose expectations differ
        # by 0.99e-9, as states at the validators' limits give.  A pivot on
        # the 1.5e-9 step between the S1 rows leaves an ill-conditioned
        # basis; the next ratio test must not take its rounding on the
        # identical rows for a step, which made the basis singular.
        check_against_highs(np.array([[0.5, 1.00000000099], [0.5, 1.00000000099]]),
                            np.array([[0.499999999505, 0.0], [0.5, -0.99e-9]]), False)


class TestBlandFromFirstPivot(TestAgainstHighs):
    """The same LPs with Bland's rule pricing from the first pivot.

    The fallback otherwise prices only after _DEGENERATE_RUN degenerate
    pivots in a row, which none of these LPs reaches.
    """

    @pytest.fixture(autouse=True)
    def _bland_at_once(self, monkeypatch):
        monkeypatch.setattr(_master, "_DEGENERATE_RUN", 0)


def test_master_inverts_nothing(monkeypatch):
    # The first basis is written in closed form, and a cut no mixture
    # prefers (every S0 expectation 0, every S1 one 1) leaves the basis
    # optimal: the re-solve prices it with the kept tableau and returns the
    # same bits.
    calls = []
    original = np.linalg.inv

    def counted(a):
        calls.append(1)
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    rng = np.random.RandomState(3)
    master = _master.Master(5, 4)
    for _ in range(6):
        master.add_cut(rng.uniform(size=5), rng.uniform(size=4))
    before = master.solve()
    master.add_cut(np.zeros(5), np.ones(4))
    after = master.solve()
    assert calls == []
    assert [v.tobytes() for v in after[1:]] == [v.tobytes() for v in before[1:]]
    assert after[0].tobytes() == np.append(before[0], 0.0).tobytes()


def inverse_based_first_tableau(l0, l1, col):
    """The first cut's tableau, tight rows, head and bounded, by inverting its basis."""
    master = _master.Master(l0, l1)
    eq = master.eq
    rows = [int(np.argmax(col[:l0])), l0 + int(np.argmax(col[l0:eq])), eq]
    master.tight = rows[:2]
    master.head[rows] = [_master._A, _master._B, 2]
    master.bounded[rows[:2]] = False
    # [A | I_R | e] over the columns a, b, the cut, then the slots.
    full = np.zeros((eq + 1, 6))
    full[:l0, _master._A], full[l0:eq, _master._B], full[:, 2] = 1.0, -1.0, col
    full[rows, [3, 4, 5]] = 1.0
    x = np.linalg.inv(full[rows, :3]) @ full[rows]
    tableau = full - full[:, :3] @ x
    tableau[rows] = x
    master.table[:6, :-1] = tableau.T
    master.table[:6, -1] = np.array([1.0, -1.0, 0, 0, 0, 0]) - (x[0] - x[1])
    return master


@settings(max_examples=200)
@given(
    st.integers(1, 40), st.integers(1, 40),
    st.sampled_from(["uniform", "coarse", "near half"]), st.integers(0, 2**32 - 1),
)
def test_first_tableau_equals_the_inverse_based_one(l0, l1, kind, seed):
    rng = np.random.RandomState(seed)
    if kind == "uniform":
        exp = rng.uniform(size=l0 + l1)
    elif kind == "coarse":
        exp = rng.randint(3, size=l0 + l1) / 2.0
    else:
        exp = 0.5 + rng.randint(-1, 2, size=l0 + l1) * 1e-9
    master = _master.Master(l0, l1)
    master.add_cut(exp[:l0], exp[l0:])
    want = inverse_based_first_tableau(l0, l1, np.concatenate([-exp[:l0], exp[l0:], [1.0]]))
    assert np.array_equal(master.table, want.table)
    assert master.tight == want.tight
    assert np.array_equal(master.head, want.head)
    assert np.array_equal(master.bounded, want.bounded)


def test_cut_with_a_nan_expectation_never_enters():
    # The NaN cut would otherwise be the best one (every S0 expectation 1,
    # every S1 one 0).  Its NaN sits in a tight or a loose row, depending
    # on the row, and either way it must neither enter nor move a bit.
    rng = np.random.RandomState(5)
    a0, a1 = rng.uniform(size=(5, 6)), rng.uniform(size=(4, 6))
    for row in range(9):
        exp = np.r_[np.ones(5), np.zeros(4)]
        exp[row] = np.nan
        plain, spoiled = _master.Master(5, 4), _master.Master(5, 4)
        for k in range(6):
            plain.add_cut(a0[:, k], a1[:, k])
            spoiled.add_cut(a0[:, k], a1[:, k])
            if k == 2:
                spoiled.add_cut(exp[:5], exp[5:])
            want, got = plain.solve(), spoiled.solve()
            if k >= 2:
                assert 5 not in spoiled.head  # the NaN cut's column
                want = (np.insert(want[0], 3, 0.0),) + want[1:]
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want], row


def fresh_factorization(master, a0, a1):
    """Basic values by position and row duals of master's basis, from B afresh."""
    (l0, k), l1 = a0.shape, a1.shape[0]
    m = l0 + l1 + 1
    structural = np.zeros((m, k + 2))  # the columns a, b, then the cuts
    structural[:l0, 0], structural[l0:-1, 1] = 1.0, -1.0
    structural[:, 2:] = np.r_[-a0, a1, np.ones((1, k))]
    head = master.head
    basis = np.where(head >= 0, structural[:, np.maximum(head, 0)], np.eye(m)[:, ~np.minimum(head, -1)])
    cost = np.where(head == 0, 1.0, np.where(head == 1, -1.0, 0.0))
    return np.linalg.solve(basis, np.eye(m)[-1]), np.linalg.solve(basis.T, cost)


@settings(max_examples=60)
@given(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 16),
    st.sampled_from(["uniform", "coarse", "duplicate"]), st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_tableau_matches_a_fresh_factorization(l0, l1, cuts, kind, bland, seed):
    rng = np.random.RandomState(seed)
    if kind == "coarse":
        a0, a1 = rng.randint(3, size=(l0, cuts)) / 2.0, rng.randint(3, size=(l1, cuts)) / 2.0
    else:
        a0, a1 = rng.uniform(size=(l0, cuts)), rng.uniform(size=(l1, cuts))
        if kind == "duplicate":
            a0, a1 = np.repeat(a0, 2, axis=1), np.repeat(a1, 2, axis=1)
    master = _master.Master(l0, l1)
    with mock.patch.object(_master, "_DEGENERATE_RUN", 0 if bland else _master._DEGENERATE_RUN):
        for k in range(a0.shape[1]):
            master.add_cut(a0[:, k], a1[:, k])
            w, mu0, mu1 = master.solve()
            values, duals = fresh_factorization(master, a0[:, :k + 1], a1[:, :k + 1])
            n, end = master.n, master.n + len(master.tight) + 1
            np.testing.assert_allclose(master.table[end - 1, :-1], values, rtol=0, atol=1e-9)
            tableau_duals = np.zeros(l0 + l1 + 1)
            tableau_duals[master.tight + [l0 + l1]] = -master.table[n:end, -1]
            np.testing.assert_allclose(tableau_duals, duals, rtol=0, atol=1e-9)
            primal = (a0[:, :k + 1] @ w).min() - (a1[:, :k + 1] @ w).max()
            dual = (mu0 @ a0[:, :k + 1] - mu1 @ a1[:, :k + 1]).max()
            assert primal == pytest.approx(dual, abs=1e-9)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(_master, "_MAX_PIVOTS", 0)
    with pytest.raises(NoConvergenceError, match="0 pivots"):
        ss.solve_saddle(state_set(KET0), state_set(KET1))


def test_solve_leaves_scipy_unimported():
    src = str(Path(ss.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import statesep as ss\n"
        "s0 = ss.StateSet.from_matrices([np.diag([1.0, 0.0]), np.eye(2) / 2])\n"
        "s1 = ss.StateSet.from_matrices([np.diag([0.0, 1.0])])\n"
        "assert ss.solve_saddle(s0, s1).converged\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
