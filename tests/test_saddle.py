import tracemalloc
import warnings

import numpy as np
import pytest

import statesep as ss
from statesep import saddle
from statesep._rng import SplitMix64
from statesep.errors import (
    BadConfigError,
    BadWeightsError,
    EmptySetError,
)
from statesep.states import _mixed

from conftest import (
    DIST_KET0_PLUS,
    KET0,
    KET1,
    MIXED2,
    PLUS,
    assert_same_report,
    random_instance,
    reference_certify,
    state_set,
)

FAST = ss.SolverConfig(max_rounds=5000, target_gap=1e-4)


class TestSolverConfig:
    def test_defaults(self):
        cfg = ss.SolverConfig()
        assert cfg.max_rounds == 20000
        assert cfg.target_gap == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_rounds": 0},
            {"target_gap": 0.0},
            {"target_gap": -1.0},
            {"target_gap": float("inf")},
            {"target_gap": float("nan")},
            {"target_gap": float("-inf")},
            {"max_rounds": 2.5},
            {"max_rounds": 10.0},
            {"max_rounds": float("nan")},
            {"max_rounds": "10"},
            {"max_rounds": None},
            {"max_rounds": True},
            {"target_gap": "x"},
            {"target_gap": None},
            {"target_gap": True},
            {"target_gap": 1e-3 + 0j},
            {"target_gap": 10**400},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(BadConfigError):
            ss.SolverConfig(**kwargs)

    def test_numpy_numbers_kept_as_python_numbers(self):
        cfg = ss.SolverConfig(max_rounds=np.int64(7), target_gap=np.float32(0.5))
        assert type(cfg.max_rounds) is int and cfg.max_rounds == 7
        assert type(cfg.target_gap) is float and cfg.target_gap == 0.5


def best_response(mu0, mu1, set0, set1):
    """The measurement player's exact response to fixed mixtures."""
    return ss.helstrom_measurement(ss.mixture_state(mu0, set0), ss.mixture_state(mu1, set1))


class TestBestResponse:
    def test_point_masses_reduce_to_helstrom(self, qubits):
        set0 = state_set(KET0, KET1)
        set1 = state_set(PLUS, MIXED2)
        t = best_response([0.0, 1.0], [1.0, 0.0], set0, set1)
        want = ss.helstrom_measurement(qubits["ket1"], qubits["plus"])
        np.testing.assert_allclose(t.matrix, want.matrix, atol=1e-12)

    def test_equal_mixtures_give_zero_measurement(self, degenerate_instance):
        set0, set1 = degenerate_instance
        t = best_response([0.5, 0.5], [1.0], set0, set1)
        np.testing.assert_allclose(t.matrix, np.zeros((2, 2)), atol=0)

    def test_singletons_identical_to_helstrom(self, qubits):
        t = best_response([1.0], [1.0], state_set(KET0), state_set(PLUS))
        want = ss.helstrom_measurement(qubits["ket0"], qubits["plus"])
        np.testing.assert_allclose(t.matrix, want.matrix, atol=1e-12)

    def test_achieves_mixture_distance(self):
        set0, set1 = random_instance(901)
        rng = np.random.RandomState(0)
        mu0 = rng.dirichlet(np.ones(len(set0)))
        mu1 = rng.dirichlet(np.ones(len(set1)))
        t = best_response(mu0, mu1, set0, set1)
        rho = ss.mixture_state(mu0, set0)
        sigma = ss.mixture_state(mu1, set1)
        assert abs(ss.pair_gap(t, rho, sigma) - ss.trace_distance(rho, sigma)) <= 1e-9


class TestSolveSaddle:
    def test_orthogonal_singletons(self):
        res = ss.solve_saddle(state_set(KET0), state_set(KET1), FAST)
        assert res.converged
        assert res.lower_bound == pytest.approx(1.0, abs=1e-4)
        assert res.upper_bound == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_overlap(self, degenerate_instance):
        set0, set1 = degenerate_instance
        res = ss.solve_saddle(set0, set1, FAST)
        assert res.converged
        assert res.upper_bound <= 1e-4
        assert res.lower_bound >= -1e-9
        np.testing.assert_allclose(res.best_mu0, [0.5, 0.5], atol=1e-12)

    def test_ket0_vs_plus(self):
        res = ss.solve_saddle(state_set(KET0), state_set(PLUS), FAST)
        assert res.converged
        assert res.lower_bound == pytest.approx(DIST_KET0_PLUS, abs=1e-4)
        assert res.upper_bound == pytest.approx(DIST_KET0_PLUS, abs=1e-4)

    def test_result_invariants_random(self):
        for seed in range(8):
            set0, set1 = random_instance(seed, dims=(2, 3))
            res = ss.solve_saddle(set0, set1, FAST)
            assert res.lower_bound <= res.upper_bound + 1e-9
            assert res.lower_bound >= -1e-9
            assert res.upper_bound <= 1.0 + 1e-9
            assert res.converged == (res.gap <= FAST.target_gap)
            assert res.rounds_used <= FAST.max_rounds
            # reported lower bound is the witness measurement's own margin
            rep = ss.separation_gap(res.measurement, set0, set1)
            assert rep.min_gap == pytest.approx(res.lower_bound, abs=0)
            # marginals are distributions
            for mu, size in ((res.best_mu0, len(set0)), (res.best_mu1, len(set1))):
                ss.as_mixture_weights(mu, size=size)

    def test_weak_duality_every_checkpoint(self):
        set0, set1 = random_instance(77)
        res = ss.solve_saddle(set0, set1, FAST)
        assert len(res.trace) >= 1
        for c in res.trace:
            assert c.lower_bound <= c.upper_bound + 1e-9
            assert c.gap == c.upper_bound - c.lower_bound

    @pytest.mark.parametrize("orientation", range(6))
    def test_converges_with_headroom_on_larger_sets(self, orientation):
        # 24 + 24 states at d = 6, drawn from SplitMix64(77) with rank 1 +
        # next % d, S0's states first; at its base (0) and under the Haar
        # unitaries of SplitMix64(1..5), which move every input bit but
        # leave eps* in place.  Each took 273-296 rounds to 1e-6, so the cap
        # of 400 leaves about 35% headroom: a regression in convergence on
        # larger sets fails here.
        dim, count = 6, 24
        rng = SplitMix64(77)
        matrices = [ss.random_density(dim, 1 + rng.next_uint64() % dim, rng.next_uint64()).matrix
                    for _ in range(2 * count)]
        if orientation:
            rng = SplitMix64(orientation)
            z = np.array(rng.normals(2 * dim * dim)).reshape(dim, dim, 2)
            q, r = np.linalg.qr(z[..., 0] + 1j * z[..., 1])
            diag = r.diagonal()
            u = q * (diag / np.abs(diag))
            matrices = [u @ m @ u.conj().T for m in matrices]
            matrices = [(m + m.conj().T) / 2.0 for m in matrices]
        set0 = ss.StateSet.from_matrices(matrices[:count])
        set1 = ss.StateSet.from_matrices(matrices[count:])
        res = ss.solve_saddle(set0, set1, ss.SolverConfig(max_rounds=400, target_gap=1e-6))
        assert res.converged, f"gap {res.gap:.3e} after {res.rounds_used} rounds"
        for c in res.trace:
            assert c.lower_bound <= c.upper_bound + 1e-9

    def test_witness_is_povm(self):
        for seed in (42, 43, 44):
            set0, set1 = random_instance(seed)
            res = ss.solve_saddle(set0, set1, FAST)
            ss.validate_povm_element(res.measurement.matrix)

    def test_deterministic_bit_identical(self):
        set0, set1 = random_instance(5)
        a = ss.solve_saddle(set0, set1, FAST)
        b = ss.solve_saddle(set0, set1, FAST)
        assert a.measurement.matrix.tobytes() == b.measurement.matrix.tobytes()
        assert a.best_mu0.tobytes() == b.best_mu0.tobytes()
        assert a.best_mu1.tobytes() == b.best_mu1.tobytes()
        assert (a.lower_bound, a.upper_bound, a.rounds_used) == (
            b.lower_bound,
            b.upper_bound,
            b.rounds_used,
        )
        assert a.trace == b.trace

    def test_monotonicity_when_enlarging_s0(self):
        for seed in (3, 4, 6):
            set0, set1 = random_instance(seed, dims=(2, 3), max_states=3)
            extra = ss.random_density(set0.dim, set0.dim, 999 + seed)
            bigger = ss.StateSet(dim=set0.dim, states=set0.states + (extra,))
            base = ss.solve_saddle(set0, set1, FAST)
            grown = ss.solve_saddle(bigger, set1, FAST)
            assert grown.upper_bound <= base.upper_bound + 1e-3

    def test_empty_set_unconstructible(self):
        with pytest.raises(EmptySetError):
            ss.StateSet(dim=2, states=())

    def test_not_converged_flagged(self):
        set0, set1 = random_instance(35, dims=(2,))
        res = ss.solve_saddle(set0, set1, ss.SolverConfig(max_rounds=1, target_gap=1e-6))
        assert not res.converged
        assert res.rounds_used == 1
        assert len(res.trace) == 1
        assert res.gap > 1e-6


class TestSmoothedQueries:
    """Wentges-smoothed queries, and the Kelley step after a mispriced one."""

    def test_queries_follow_the_rule(self, monkeypatch):
        # Replays the query rule from what the solve records: its cuts, the
        # master's solutions, its lower bounds and its query matrices.
        # Criterion-2 instance 12 has mispriced queries at the default
        # smoothing.
        set0, set1 = random_instance(12, dims=(2, 3, 4), max_states=4)
        cuts, solutions, lowers, queries = [], [], [], []

        class Recording(saddle.Master):
            def add_cut(self, exp0, exp1):
                cuts.append((exp0, exp1))
                super().add_cut(exp0, exp1)

            def solve(self):
                solutions.append(super().solve())
                return solutions[-1]

        def margin(t, s0, s1, original=saddle.min_separation_gap):
            lowers.append(original(t, s0, s1))
            return lowers[-1]

        def eigh(h, original=saddle.eigh):
            queries.append(h)
            return original(h)

        monkeypatch.setattr(saddle, "Master", Recording)
        monkeypatch.setattr(saddle, "min_separation_gap", margin)
        monkeypatch.setattr(saddle, "eigh", eigh)
        res = ss.solve_saddle(set0, set1, ss.SolverConfig(target_gap=1e-3))

        l0, l1 = len(set0), len(set1)
        mu0, mu1 = np.full(l0, 1.0 / l0), np.full(l1, 1.0 / l1)
        kelley_steps = 0
        for t in range(1, res.rounds_used + 1):
            diff = _mixed(mu0, set0.stack()) - _mixed(mu1, set1.stack())
            assert queries[t - 1].tobytes() == ((diff + diff.conj().T) / 2.0).tobytes()
            if t == 1 or res.trace[t - 1].upper_bound < res.trace[t - 2].upper_bound:
                best0, best1 = mu0, mu1
            if t == res.rounds_used:
                break
            # Cut 0 is I/2, so round t adds cut t; lowers[0] is I/2's margin.
            _, next0, next1 = solutions[t - 1]
            mispriced = False
            if t > 1:
                _, m0, m1 = solutions[t - 2]
                exp0, exp1 = cuts[t]
                mispriced = float(m0 @ exp0 - m1 @ exp1) <= lowers[t - 1] + 1e-12
            if mispriced:
                kelley_steps += 1
                mu0, mu1 = next0, next1
            else:
                mu0 = saddle._SMOOTHING * best0 + (1.0 - saddle._SMOOTHING) * next0
                mu1 = saddle._SMOOTHING * best1 + (1.0 - saddle._SMOOTHING) * next1
        assert kelley_steps > 0
        assert res.best_mu0.tobytes() == best0.tobytes()
        assert res.best_mu1.tobytes() == best1.tobytes()

    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    def test_converges_under_heavy_smoothing(self, monkeypatch, gap):
        # Queries 95% of the way to the best mixtures so far: the solve
        # still converges on the criterion-5 instance and on every fifth
        # criterion-2 instance, each query a mixture.  It is slow, though:
        # with few mispriced queries, the rate rests on the smoothing, and
        # some criterion-2 instances take over 100 iterations, past
        # criterion 2's 50.
        monkeypatch.setattr(saddle, "_SMOOTHING", 0.95)
        instances = [(state_set(KET0, KET1), state_set(MIXED2))]
        instances += [random_instance(k, dims=(2, 3, 4), max_states=4) for k in range(0, 50, 5)]
        for set0, set1 in instances:
            res = ss.solve_saddle(set0, set1, ss.SolverConfig(target_gap=gap))
            assert res.converged
            for point in res.trace:
                assert point.lower_bound <= point.upper_bound + 1e-9
            ss.as_mixture_weights(res.best_mu0, size=len(set0))
            ss.as_mixture_weights(res.best_mu1, size=len(set1))


class TestProductForm:
    """The solve never builds an array over the l0 x l1 state pairs."""

    def test_no_pair_array_during_solve(self):
        set0 = ss.StateSet(dim=2, states=tuple(ss.random_density(2, 1, s) for s in range(1024)))
        set1 = ss.StateSet(
            dim=2, states=tuple(ss.random_density(2, 1, 5000 + s) for s in range(1024))
        )
        cfg = ss.SolverConfig(max_rounds=200, target_gap=1e-12)
        tracemalloc.start()
        try:
            res = ss.solve_saddle(set0, set1, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The master keeps its 2049 x K cut columns and a basis block of
        # at most K + 2 square, never a 2049-square basis inverse.
        assert res.converged
        assert peak < 1024 * 1024 * np.dtype(np.float64).itemsize


class TestMinMixtureDistance:
    """solve_saddle's best_mu0/best_mu1 and the upper_bound they attain."""

    def test_singletons(self, qubits):
        res = ss.solve_saddle(state_set(KET0), state_set(PLUS), FAST)
        np.testing.assert_allclose(res.best_mu0, [1.0])
        np.testing.assert_allclose(res.best_mu1, [1.0])
        assert res.upper_bound == pytest.approx(DIST_KET0_PLUS, abs=1e-6)

    def test_degenerate(self, degenerate_instance):
        set0, set1 = degenerate_instance
        res = ss.solve_saddle(set0, set1, FAST)
        assert res.upper_bound <= 1e-9
        np.testing.assert_allclose(res.best_mu0, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(res.best_mu1, [1.0])

    def test_disjoint_supports(self):
        set0 = state_set(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
        set1 = state_set(np.diag([0.0, 0.0, 1.0]))
        res = ss.solve_saddle(set0, set1, FAST)
        assert res.upper_bound == pytest.approx(1.0, abs=1e-9)

    def test_matches_solver_upper_bound(self):
        set0, set1 = random_instance(21)
        res = ss.solve_saddle(set0, set1, FAST)
        # The reported bound is the best one any checkpoint saw.
        assert res.upper_bound == res.trace[-1].upper_bound
        assert res.upper_bound == min(c.upper_bound for c in res.trace)

    def test_holds_for_traces_off_one(self):
        # Both traces 0.99e-9 off 1, which validation accepts.  Half the
        # trace norm of the difference, 0.1 + t, would lie under the margin
        # |0><0| attains, 0.1 + 2t; the sum of its positive eigenvalues
        # is that margin.
        t = 0.99e-9
        set0 = state_set(np.diag([1.0 + t, 0.0]))
        set1 = state_set(np.diag([0.9 - t, 0.1]))
        res = ss.solve_saddle(set0, set1, ss.SolverConfig(target_gap=1e-12))
        assert res.converged
        assert res.lower_bound == pytest.approx(0.1 + 2 * t, abs=1e-15)
        assert res.lower_bound <= res.upper_bound + 2e-13
        assert ss.trace_distance(set0.states[0], set1.states[0]) < res.lower_bound - 9e-10
        report = ss.certify_forward(res.measurement, set0, set1, trials=10, seed=1)
        assert report.max_violation <= 2e-13

    def test_realizes_its_value(self):
        set0, set1 = random_instance(22)
        res = ss.solve_saddle(set0, set1, FAST)
        dist = ss.trace_distance(
            ss.mixture_state(res.best_mu0, set0), ss.mixture_state(res.best_mu1, set1)
        )
        assert dist == pytest.approx(res.upper_bound, abs=1e-9)

    def test_kernel_runs_only_on_queries_that_can_lower_the_bound(self, monkeypatch):
        # The deep benchmark's base instances (d = 9, 12, 16).  LAPACK's eigh
        # chooses every cut; hermitian_eig runs only on the queries that can
        # lower the upper bound, fewer than there are iterations.
        calls = []
        original = saddle.hermitian_eig

        def counted(m):
            calls.append(1)
            return original(m)

        monkeypatch.setattr(saddle, "hermitian_eig", counted)
        cfg = ss.SolverConfig(max_rounds=1000, target_gap=1e-2)
        total_calls = total_rounds = 0
        for dim, l0, l1, base_seed in ((9, 2, 3, 9000), (12, 3, 2, 9002), (16, 2, 3, 9002)):
            rng = SplitMix64(base_seed)
            base = [ss.random_density(dim, dim, rng.next_uint64()) for _ in range(l0 + l1)]
            calls.clear()
            res = ss.solve_saddle(ss.StateSet(dim=dim, states=tuple(base[:l0])),
                                  ss.StateSet(dim=dim, states=tuple(base[l0:])), cfg)
            assert res.converged
            assert len(calls) <= res.rounds_used
            total_calls += len(calls)
            total_rounds += res.rounds_used
        assert total_calls < total_rounds


class TestCertifyForward:
    def test_half_identity_never_violates(self, degenerate_instance):
        set0, set1 = degenerate_instance
        t = ss.PovmElement(np.eye(2) / 2.0)
        report = ss.certify_forward(t, set0, set1, trials=200, seed=1)
        assert abs(report.margin) <= 1e-12
        assert report.max_violation <= 1e-9

    def test_orthogonal_singletons(self, qubits):
        t = ss.helstrom_measurement(qubits["ket0"], qubits["ket1"])
        report = ss.certify_forward(t, state_set(KET0), state_set(KET1), trials=50, seed=2)
        assert report.margin == pytest.approx(1.0, abs=1e-12)
        assert report.min_distance == pytest.approx(1.0, abs=1e-12)
        assert report.max_violation <= 1e-9

    def test_solver_witness_on_random_instance(self):
        set0, set1 = random_instance(314, dims=(3,), max_states=3)
        res = ss.solve_saddle(set0, set1, FAST)
        report = ss.certify_forward(res.measurement, set0, set1, trials=1000, seed=3)
        assert report.max_violation <= 1e-9
        assert report.margin == res.lower_bound

    def test_deterministic(self):
        set0, set1 = random_instance(11)
        t = ss.PovmElement(np.eye(set0.dim) / 2.0)
        a = ss.certify_forward(t, set0, set1, trials=64, seed=9)
        b = ss.certify_forward(t, set0, set1, trials=64, seed=9)
        assert a.min_distance == b.min_distance
        assert a.worst_mu0.tobytes() == b.worst_mu0.tobytes()

    def test_one_scalar_eigendecomposition_per_certify(self, kernel_calls, monkeypatch):
        # Trials are screened by one batched eigvalsh call per block; only
        # the closest trial runs hermitian_eig, through trace_distance.
        set0, set1 = random_instance(11)
        t = ss.PovmElement(np.eye(set0.dim) / 2.0)
        batched = []
        original = saddle.eigvalsh

        def counted(stack):
            batched.append(len(stack))
            return original(stack)

        monkeypatch.setattr(saddle, "eigvalsh", counted)
        width = max(len(set0) + len(set1), set0.dim ** 2)
        for trials, block in ((1, 16384), (37, 16384), (1000, 16384), (1000, 7 * width)):
            monkeypatch.setattr(saddle, "_CERTIFY_BLOCK", block)
            kernel_calls.clear()
            batched.clear()
            ss.certify_forward(t, set0, set1, trials=trials, seed=4)
            assert len(kernel_calls) == 1
            assert len(batched) == -(-trials // (block // width))
            assert sum(batched) == trials
        # Singletons: every trial is the same pair, recomputed only once.
        kernel_calls.clear()
        ss.certify_forward(t, ss.StateSet(dim=set0.dim, states=set0.states[:1]),
                           ss.StateSet(dim=set1.dim, states=set1.states[:1]), trials=50, seed=4)
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("seed", [11, 22, 314])
    def test_report_independent_of_block_size(self, monkeypatch, seed):
        set0, set1 = random_instance(seed)
        t = ss.solve_saddle(set0, set1, FAST).measurement
        width = max(len(set0) + len(set1), set0.dim ** 2)
        reports = []
        for block in (saddle._CERTIFY_BLOCK, 1, 7 * width):
            monkeypatch.setattr(saddle, "_CERTIFY_BLOCK", block)
            reports.append(ss.certify_forward(t, set0, set1, trials=200, seed=seed))
        for other in reports[1:]:
            assert_same_report(other, reports[0])

    @pytest.mark.parametrize("seed", [5, 12, 99])
    def test_matches_per_trial_reference(self, seed):
        set0, set1 = random_instance(seed)
        t = ss.solve_saddle(set0, set1, FAST).measurement
        report = ss.certify_forward(t, set0, set1, trials=300, seed=seed)
        assert_same_report(report, reference_certify(t, set0, set1, 300, seed))

    @pytest.mark.parametrize(
        "dim, trials, seed", [(9, 60, 1), (9, 60, 2), (12, 40, 3), (16, 30, 4)]
    )
    def test_matches_per_trial_reference_at_deep_dims(self, monkeypatch, dim, trials, seed):
        # The benchmark's deep dimensions, full-rank states: the screen slack
        # grows with d, and so does the kernels' disagreement.
        states = tuple(ss.random_density(dim, dim, 100 * seed + k) for k in range(5))
        set0 = ss.StateSet(dim=dim, states=states[:2])
        set1 = ss.StateSet(dim=dim, states=states[2:])
        t = ss.solve_saddle(set0, set1, ss.SolverConfig(target_gap=1e-2)).measurement
        reference = reference_certify(t, set0, set1, trials, seed)
        for block in (saddle._CERTIFY_BLOCK, 1):
            monkeypatch.setattr(saddle, "_CERTIFY_BLOCK", block)
            assert_same_report(ss.certify_forward(t, set0, set1, trials, seed), reference)

    @pytest.fixture(scope="class")
    def wide_shaped(self):
        # The benchmark's wide shape, 256 + 256 states at d = 4: a block
        # screens 32 trials, so 100 trials end in a partial block.  The
        # sets lean towards |0><0| and |3><3|, and T projects on |0>, |1>.
        lean = [np.diag(np.eye(4)[k]).astype(complex) for k in (0, 3)]
        sets = [
            ss.StateSet.from_matrices([
                (ss.random_density(4, 1 + k % 4, 7_000 + 256 * side + k).matrix + lean[side]) / 2.0
                for k in range(256)
            ])
            for side in (0, 1)
        ]
        t = ss.PovmElement(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        assert 100 % (saddle._CERTIFY_BLOCK // 512) != 0
        return t, sets[0], sets[1], reference_certify(t, sets[0], sets[1], 100, 3)

    def test_matches_per_trial_reference_wide(self, wide_shaped):
        t, set0, set1, reference = wide_shaped
        assert reference.margin > 0.0
        assert_same_report(ss.certify_forward(t, set0, set1, 100, 3), reference)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_screen_log_off_by_eta_keeps_the_report(self, monkeypatch, wide_shaped, sign):
        # Every screened exponential off by the full relative error the
        # slack allows, in alternating directions, so that the weights move
        # too: the screen may rank the trials otherwise, but the report is
        # still the reference's.
        t, set0, set1, reference = wide_shaped
        eta = saddle._SCREEN_LOG_ETA

        def skewed(u):
            signs = np.where(np.arange(u.size).reshape(u.shape) % 2 == 0, sign, -sign)
            return np.log(u) * (1.0 + signs * eta)

        monkeypatch.setattr(saddle, "log", skewed)
        assert_same_report(ss.certify_forward(t, set0, set1, 100, 3), reference)

    def test_ties_match_per_trial_reference(self):
        # Orthogonal supports, turned by a common unitary: every mixture pair
        # is at distance 1 up to rounding, so the screen cannot order the
        # trials and the exact values must decide, in trial order.
        zero = np.zeros((2, 2))
        q, _ = np.linalg.qr(np.random.RandomState(5).normal(size=(4, 4, 2)) @ [1.0, 1j])

        def turned(block, upper):
            m = np.block([[block, zero], [zero, zero]] if upper else [[zero, zero], [zero, block]])
            m = q @ m @ q.conj().T
            return (m + m.conj().T) / 2.0

        set0 = state_set(*[turned(ss.random_density(2, 2, 3 + k).matrix, True) for k in range(3)])
        set1 = state_set(*[turned(ss.random_density(2, 2, 13 + k).matrix, False) for k in range(3)])
        t = ss.PovmElement(np.eye(4) / 2.0)
        report = ss.certify_forward(t, set0, set1, trials=64, seed=8)
        assert report.min_distance == pytest.approx(1.0, abs=1e-12)
        assert_same_report(report, reference_certify(t, set0, set1, 64, 8))

    def test_no_warnings(self):
        set0, set1 = random_instance(314, dims=(3,), max_states=3)
        t = ss.PovmElement(np.eye(3) / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ss.certify_forward(t, set0, set1, trials=100, seed=1)

    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf, "zero-row"])
    def test_weights_off_the_simplex_name_their_trial(self, monkeypatch, degenerate_instance,
                                                      value):
        # The stream's exponentials are finite and non-negative, and a
        # side's sum is positive unless a singleton side draws a uniform of
        # exactly 1.0, so only a fault reaches this check: here one raw
        # draw, or all of S1's draws in one row.  Blocks of 4 trials: the
        # second block's (3 trials) second row is trial 5.
        set0, set1 = degenerate_instance
        monkeypatch.setattr(saddle, "_CERTIFY_BLOCK", 4 * max(len(set0) + len(set1), 4))

        def spoiled(uniforms):
            logs = np.log(uniforms)
            if logs.shape[0] == 3:
                if isinstance(value, str):
                    logs[1, len(set0):] = 0.0
                else:
                    logs[1, 0] = -value
            return logs

        monkeypatch.setattr(saddle, "log", spoiled)
        with pytest.raises(BadWeightsError, match="^trial 5: sampled weights are off the simplex$"):
            ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), set0, set1, trials=7, seed=0)

    def test_trials_validated(self, degenerate_instance):
        set0, set1 = degenerate_instance
        with pytest.raises(ValueError):
            ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), set0, set1, trials=0, seed=0)
        for trials in (0, -3):
            with pytest.raises(BadConfigError, match="trials must be >= 1"):
                ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), set0, set1,
                                   trials=trials, seed=0)
        for trials in (2.5, 3.0, "3", None, True):
            with pytest.raises(BadConfigError, match="trials must be an integer"):
                ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), set0, set1,
                                   trials=trials, seed=0)
        for seed in (2.5, 3.0, "3", None, True):
            with pytest.raises(BadConfigError, match="seed must be an integer"):
                ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), set0, set1,
                                   trials=3, seed=seed)
        # trials is checked before seed.
        with pytest.raises(BadConfigError, match="trials must be an integer"):
            ss.certify_forward(ss.PovmElement(np.eye(2) / 2.0), set0, set1, trials=2.5, seed=2.5)
