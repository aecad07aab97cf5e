import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statesep as ss
from statesep.errors import (
    BadConfigError,
    DimensionMismatchError,
    GapOutOfBandError,
    ImaginaryResidueError,
)

from conftest import (
    DIST_KET0_PLUS,
    KET0,
    KET1,
    MIXED2,
    PLUS,
    density,
    random_hermitian,
    state_set,
)


def random_povm_element(rng, dim) -> ss.PovmElement:
    """Random Hermitian squashed into [0, 1] spectrum."""
    dec = ss.hermitian_eig(random_hermitian(rng, dim))
    lam = 0.5 * (1.0 + np.tanh(dec.eigenvalues))
    return ss.PovmElement((dec.eigenvectors * lam) @ dec.eigenvectors.conj().T)


def random_unitary_from_hermitian(rng, dim) -> np.ndarray:
    return ss.hermitian_eig(random_hermitian(rng, dim)).eigenvectors


class TestTraceDistance:
    def test_equal_states(self, qubits):
        assert ss.trace_distance(qubits["plus"], qubits["plus"]) == 0.0

    def test_orthogonal_pure(self, qubits):
        assert ss.trace_distance(qubits["ket0"], qubits["ket1"]) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_pair(self):
        a = density(np.diag([0.75, 0.25]))
        b = density(np.diag([0.25, 0.75]))
        assert ss.trace_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_ket0_vs_plus_frozen_value(self, qubits):
        assert ss.trace_distance(qubits["ket0"], qubits["plus"]) == pytest.approx(
            DIST_KET0_PLUS, abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            a = ss.random_density(3, 3, rng.randint(2**31))
            b = ss.random_density(3, 2, rng.randint(2**31))
            assert abs(ss.trace_distance(a, b) - ss.trace_distance(b, a)) <= 1e-12

    def test_triangle_inequality(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            a, b, c = (ss.random_density(3, 3, rng.randint(2**31)) for _ in range(3))
            assert ss.trace_distance(a, c) <= (
                ss.trace_distance(a, b) + ss.trace_distance(b, c) + 1e-9
            )

    def test_unitary_invariance(self):
        rng = np.random.RandomState(7)
        for _ in range(10):
            a = ss.random_density(4, 4, rng.randint(2**31))
            b = ss.random_density(4, 2, rng.randint(2**31))
            u = random_unitary_from_hermitian(rng, 4)
            ua = ss.validate_density(u @ a.matrix @ u.conj().T)
            ub = ss.validate_density(u @ b.matrix @ u.conj().T)
            assert abs(ss.trace_distance(ua, ub) - ss.trace_distance(a, b)) <= 1e-9

    def test_dimension_mismatch(self, qubits):
        with pytest.raises(DimensionMismatchError):
            ss.trace_distance(qubits["ket0"], ss.validate_density(np.eye(3) / 3.0))


class TestHelstromMeasurement:
    def test_orthogonal_pair(self, qubits):
        t = ss.helstrom_measurement(qubits["ket0"], qubits["ket1"])
        np.testing.assert_allclose(t.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert ss.pair_gap(t, qubits["ket0"], qubits["ket1"]) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self, qubits):
        t = ss.helstrom_measurement(qubits["mixed"], qubits["mixed"])
        np.testing.assert_allclose(t.matrix, np.zeros((2, 2)), atol=0)

    def test_diagonal_pair(self):
        a = density(np.diag([0.75, 0.25]))
        b = density(np.diag([0.25, 0.75]))
        t = ss.helstrom_measurement(a, b)
        np.testing.assert_allclose(t.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert ss.pair_gap(t, a, b) == pytest.approx(0.5, abs=1e-12)

    def test_achieves_trace_distance(self):
        rng = np.random.RandomState(13)
        for _ in range(25):
            a = ss.random_density(4, 1 + rng.randint(4), rng.randint(2**31))
            b = ss.random_density(4, 1 + rng.randint(4), rng.randint(2**31))
            t = ss.helstrom_measurement(a, b)
            assert abs(ss.pair_gap(t, a, b) - ss.trace_distance(a, b)) <= 1e-9
            ss.validate_povm_element(t.matrix)

    def test_no_other_measurement_beats_it(self):
        rng = np.random.RandomState(17)
        for _ in range(5):
            a = ss.random_density(3, 3, rng.randint(2**31))
            b = ss.random_density(3, 3, rng.randint(2**31))
            ceiling = ss.trace_distance(a, b)
            for _ in range(200):
                t = random_povm_element(rng, 3)
                assert ss.pair_gap(t, a, b) <= ceiling + 1e-8


class TestMaxPairGap:
    def test_is_the_trace_distance_for_equal_traces(self):
        rng = np.random.RandomState(19)
        for dim in (2, 3, 4, 9):
            a = ss.random_density(dim, 1 + rng.randint(dim), rng.randint(2**31))
            b = ss.random_density(dim, 1 + rng.randint(dim), rng.randint(2**31))
            assert abs(ss.max_pair_gap(a, b) - ss.trace_distance(a, b)) <= 1e-13

    def test_helstrom_measurement_attains_it_when_traces_differ(self):
        # Traces 1 + t and 1 - t: the trace distance is 0.1 + t, the best
        # pair gap 0.1 + 2t, which |0><0| attains.
        t = 0.99e-9
        a = density(np.diag([1.0 + t, 0.0]))
        b = density(np.diag([0.9 - t, 0.1]))
        best = ss.max_pair_gap(a, b)
        assert best == pytest.approx(0.1 + 2 * t, abs=1e-16)
        assert ss.trace_distance(a, b) == pytest.approx(0.1 + t, abs=1e-16)
        assert ss.pair_gap(ss.helstrom_measurement(a, b), a, b) == pytest.approx(best, abs=1e-16)
        assert ss.max_pair_gap(b, a) == pytest.approx(0.1, abs=1e-16)

    def test_rejects_mixed_dimensions(self, qubits):
        with pytest.raises(DimensionMismatchError):
            ss.max_pair_gap(qubits["ket0"], density(np.eye(3) / 3.0))


class TestPairGap:
    def test_identity_measurement(self, qubits):
        t = ss.validate_povm_element(np.eye(2))
        assert abs(ss.pair_gap(t, qubits["ket0"], qubits["plus"])) <= 1e-12

    def test_zero_measurement(self, qubits):
        t = ss.PovmElement(np.zeros((2, 2)))
        assert ss.pair_gap(t, qubits["ket0"], qubits["ket1"]) == 0.0

    def test_diagonal_example(self):
        t = ss.validate_povm_element(np.diag([1.0, 0.0]))
        a = density(np.diag([0.75, 0.25]))
        b = density(np.diag([0.25, 0.75]))
        assert ss.pair_gap(t, a, b) == pytest.approx(0.5, abs=1e-15)


class TestSeparationGap:
    def test_example_instance(self, degenerate_instance):
        set0, set1 = degenerate_instance
        t = ss.validate_povm_element(np.diag([1.0, 0.0]))
        rep = ss.separation_gap(t, set0, set1)
        np.testing.assert_allclose(rep.per_pair_gaps, [[0.5], [-0.5]], atol=1e-12)
        assert rep.min_gap == pytest.approx(-0.5, abs=1e-12)
        assert rep.argmin_pair == (1, 0)

    def test_half_identity_gives_zero(self):
        set0 = state_set(KET0, PLUS)
        set1 = state_set(MIXED2, KET1)
        t = ss.validate_povm_element(np.eye(2) / 2.0)
        rep = ss.separation_gap(t, set0, set1)
        assert np.abs(rep.per_pair_gaps).max() <= 1e-12

    def test_singletons(self, qubits):
        t = ss.helstrom_measurement(qubits["ket0"], qubits["plus"])
        rep = ss.separation_gap(t, state_set(KET0), state_set(PLUS))
        assert rep.min_gap == pytest.approx(
            ss.pair_gap(t, qubits["ket0"], qubits["plus"]), abs=0
        )
        assert rep.argmin_pair == (0, 0)

    def test_tie_break_lexicographic(self):
        # T = I/2 gives exactly zero on every pair; first index pair wins.
        set0 = state_set(KET0, KET1)
        set1 = state_set(KET0, KET1)
        rep = ss.separation_gap(ss.PovmElement(np.eye(2) / 2.0), set0, set1)
        assert rep.argmin_pair == (0, 0)

    def test_min_matches_matrix(self):
        rng = np.random.RandomState(23)
        set0 = ss.StateSet(dim=3, states=tuple(ss.random_density(3, 3, s) for s in (1, 2, 3)))
        set1 = ss.StateSet(dim=3, states=tuple(ss.random_density(3, 2, s) for s in (4, 5)))
        for _ in range(10):
            t = random_povm_element(rng, 3)
            rep = ss.separation_gap(t, set0, set1)
            assert rep.min_gap == rep.per_pair_gaps.min()
            i, j = rep.argmin_pair
            assert rep.per_pair_gaps[i, j] == rep.min_gap


class TestMinSeparationGap:
    def test_bit_identical_to_pair_array_minimum(self):
        rng = np.random.RandomState(31)
        for dim, l0, l1 in ((2, 5, 3), (3, 1, 6), (4, 4, 4)):
            set0 = ss.StateSet(dim=dim, states=tuple(
                ss.random_density(dim, 1 + k % dim, 100 * dim + k) for k in range(l0)))
            set1 = ss.StateSet(dim=dim, states=tuple(
                ss.random_density(dim, 1 + k % dim, 100 * dim + 50 + k) for k in range(l1)))
            for _ in range(10):
                t = random_povm_element(rng, dim)
                assert ss.min_separation_gap(t, set0, set1) == (
                    ss.separation_gap(t, set0, set1).min_gap
                )

    def test_example_instance(self, degenerate_instance):
        t = ss.validate_povm_element(np.diag([1.0, 0.0]))
        assert ss.min_separation_gap(t, *degenerate_instance) == pytest.approx(-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        t = ss.PovmElement(np.eye(3) / 2.0)
        with pytest.raises(DimensionMismatchError):
            ss.min_separation_gap(t, state_set(KET0), state_set(KET1))


# Unvalidated elements that break the gap checks: T is not Hermitian, so
# Tr(T |+><+|) = 0.5j; and T = diag(3, 0) gives pair gaps of +/-3.
NON_HERMITIAN = np.array([[0.0, 1.0j], [0.0, 0.0]])
OUT_OF_BAND = np.diag([3.0, 0.0])

_UNDER_OPTIMIZE = """
import numpy as np
import statesep as ss

plus = ss.validate_density(np.full((2, 2), 0.5))
ket0 = ss.validate_density(np.diag([1.0, 0.0]))
ket1 = ss.validate_density(np.diag([0.0, 1.0]))
t = ss.PovmElement(np.array([[0.0, 1.0j], [0.0, 0.0]]))
band = ss.PovmElement(np.diag([3.0, 0.0]))
calls = [lambda: ss.pair_gap(t, plus, ket0), lambda: ss.pair_gap(band, ket0, ket1)]
for gap in (ss.separation_gap, ss.min_separation_gap):
    calls.append(lambda gap=gap: gap(t, ss.StateSet(2, (plus,)), ss.StateSet(2, (ket0,))))
    calls.append(lambda gap=gap: gap(band, ss.StateSet(2, (ket0,)), ss.StateSet(2, (ket1,))))
for call in calls:
    try:
        call()
    except ss.StatesepError as exc:
        print(type(exc).__name__)
"""


class TestTypedChecks:
    def test_imaginary_residue(self, qubits):
        t = ss.PovmElement(NON_HERMITIAN)
        set0, set1 = state_set(PLUS), state_set(KET0)
        with pytest.raises(ImaginaryResidueError):
            ss.pair_gap(t, qubits["plus"], qubits["ket0"])
        with pytest.raises(ImaginaryResidueError):
            ss.separation_gap(t, set0, set1)
        with pytest.raises(ImaginaryResidueError):
            ss.min_separation_gap(t, set0, set1)
        # The residue of either set is checked.
        with pytest.raises(ImaginaryResidueError):
            ss.min_separation_gap(t, set1, set0)

    @pytest.mark.parametrize("swap", [False, True])
    def test_gap_outside_band(self, swap):
        set0, set1 = state_set(KET0), state_set(KET1)
        if swap:  # gap -3 instead of +3
            set0, set1 = set1, set0
        t = ss.PovmElement(OUT_OF_BAND)
        with pytest.raises(GapOutOfBandError):
            ss.pair_gap(t, set0.states[0], set1.states[0])
        with pytest.raises(GapOutOfBandError):
            ss.separation_gap(t, set0, set1)
        with pytest.raises(GapOutOfBandError):
            ss.min_separation_gap(t, set0, set1)

    @pytest.mark.parametrize("case", ["band", "residue"])
    def test_validated_operators_pass_both_checks(self, case):
        # Each operator lies inside the validators' 1e-9 slack.  "band":
        # the pair gap is 1 + 3.38e-9.  "residue": T's anti-Hermitian part,
        # entries 0.49e-9, gives Tr(T rho) an imaginary part of 1.47e-9.
        if case == "band":
            t = np.diag([1.0 + 0.99e-9, -0.99e-9])
            rho, sigma = np.diag([1.0 + 0.9e-9, -0.5e-9]), np.diag([-0.5e-9, 1.0 + 0.9e-9])
            expected = 1.0 + 3.38e-9
        else:
            off = np.ones((4, 4)) - np.eye(4)
            t = np.eye(4) / 2.0 + 0.49e-9j * off
            rho, sigma = np.full((4, 4), 0.25), np.eye(4) / 4.0
            expected = 0.0
        t = ss.validate_povm_element(t)
        rho, sigma = ss.validate_density(rho), ss.validate_density(sigma)
        set0, set1 = ss.StateSet(t.dim, (rho,)), ss.StateSet(t.dim, (sigma,))
        assert ss.pair_gap(t, rho, sigma) == pytest.approx(expected, abs=1e-15)
        assert ss.min_separation_gap(t, set0, set1) == pytest.approx(expected, abs=1e-15)
        assert ss.separation_gap(t, set0, set1).min_gap == ss.min_separation_gap(t, set0, set1)
        assert ss.certify_forward(t, set0, set1, trials=20, seed=1).margin == (
            ss.min_separation_gap(t, set0, set1))

    def test_errors_are_statesep_errors(self):
        assert issubclass(ImaginaryResidueError, ss.StatesepError)
        assert issubclass(GapOutOfBandError, ss.StatesepError)

    def test_checks_survive_python_optimize(self):
        src = str(Path(ss.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _UNDER_OPTIMIZE],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == 3 * ["ImaginaryResidueError", "GapOutOfBandError"]

    def test_no_assert_statement_in_package(self):
        # python -O strips assert statements, so no check may be one.
        paths = sorted(Path(ss.__file__).resolve().parent.glob("*.py"))
        assert {"hermitian.py", "saddle.py", "stateio.py"} <= {path.name for path in paths}
        found = [
            f"{path.name}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestIsSeparating:
    def test_orthogonal_thresholds(self, qubits):
        t = ss.helstrom_measurement(qubits["ket0"], qubits["ket1"])
        set0, set1 = state_set(KET0), state_set(KET1)
        assert ss.is_separating(t, set0, set1, 0.9)
        assert not ss.is_separating(t, set0, set1, 1.1)

    def test_identical_sets_never_separate(self, qubits):
        set0 = state_set(KET0, PLUS)
        t = ss.helstrom_measurement(qubits["ket0"], qubits["plus"])
        assert not ss.is_separating(t, set0, set0, 1e-6)

    def test_eps_must_be_positive(self, qubits):
        t = ss.PovmElement(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            ss.is_separating(t, state_set(KET0), state_set(KET1), 0.0)
        for eps in (0.0, -0.5, float("nan"), float("-inf")):
            with pytest.raises(BadConfigError, match="eps must be positive"):
                ss.is_separating(t, state_set(KET0), state_set(KET1), eps)
        for eps in ("x", None, True, 0.5j):
            with pytest.raises(BadConfigError, match="eps must be a real number"):
                ss.is_separating(t, state_set(KET0), state_set(KET1), eps)
        assert ss.is_separating(t, state_set(KET0), state_set(KET1), np.float32(0.25)) is False


class TestLinearityBridge:
    def test_mixture_gap_dominates_min_gap(self):
        rng = np.random.RandomState(29)
        set0 = ss.StateSet(dim=2, states=tuple(ss.random_density(2, 2, s) for s in (11, 12, 13)))
        set1 = ss.StateSet(dim=2, states=tuple(ss.random_density(2, 1, s) for s in (14, 15)))
        for _ in range(20):
            t = random_povm_element(rng, 2)
            rep = ss.separation_gap(t, set0, set1)
            mu0 = rng.dirichlet(np.ones(3))
            mu1 = rng.dirichlet(np.ones(2))
            mixed_gap = ss.pair_gap(
                t, ss.mixture_state(mu0, set0), ss.mixture_state(mu1, set1)
            )
            assert mixed_gap >= rep.min_gap - 1e-9
            expected = float(mu0 @ rep.per_pair_gaps @ mu1)
            assert abs(mixed_gap - expected) <= 1e-9


@pytest.mark.parametrize("call", [
    lambda s0, s1: ss.solve_saddle(s0, s1),
    # A measurement of set0's dimension, so that the sets' check fires.
    lambda s0, s1: ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), s0, s1, 10, 0),
    lambda s0, s1: ss.brute_force_epsilon_d2(s0, s1, 0.1),
    lambda s0, s1: ss.mixture_grid_oracle(s0, s1, 0.25),
    lambda s0, s1: ss.trace_distance(s0.states[0], s1.states[0]),
    lambda s0, s1: ss.max_pair_gap(s0.states[0], s1.states[0]),
    lambda s0, s1: ss.helstrom_measurement(s0.states[0], s1.states[0]),
], ids=["solve_saddle", "certify_forward", "brute_force_epsilon_d2", "mixture_grid_oracle",
        "trace_distance", "max_pair_gap", "helstrom_measurement"])
def test_sets_of_mixed_dimensions_share_one_error(call):
    set0 = state_set(KET0)
    set1 = ss.StateSet(dim=3, states=(ss.random_density(3, 3, 1),))
    with pytest.raises(DimensionMismatchError, match=r"mixed dimensions \(2, 3\)"):
        call(set0, set1)
