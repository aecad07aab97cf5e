"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The random workloads are fully seeded and deterministic.
"""

import json

import numpy as np
import pytest

import statesep as ss
from statesep import cli, stateio
from statesep._rng import SplitMix64
from statesep.hermitian import hermitian_eig, positive_part_projector, trace

from conftest import KET0, KET1, MIXED2, random_instance, state_set

CRIT1_PAIRS = 100
CRIT2_INSTANCES = 50
CRIT3_INSTANCES = 20
CRIT6_MATRICES = 1000

CRIT2_CONFIG = ss.SolverConfig(max_rounds=20000, target_gap=1e-3)


@pytest.fixture(scope="session")
def criterion2_runs():
    """The 50 solved instances shared by criteria 2 and 4."""
    runs = []
    for k in range(CRIT2_INSTANCES):
        set0, set1 = random_instance(k, dims=(2, 3, 4), max_states=4)
        runs.append((k, set0, set1, ss.solve_saddle(set0, set1, CRIT2_CONFIG)))
    return runs


def test_criterion_1_singleton_reduction():
    """solve_saddle on singletons reproduces the two-state optimum."""
    config = ss.SolverConfig(max_rounds=20000, target_gap=1e-4)
    stream = SplitMix64(101)
    worst_bound = 0.0
    worst_helstrom = 0.0
    for k in range(CRIT1_PAIRS):
        dim = 2 + k % 3
        rho = ss.random_density(dim, dim, stream.next_uint64())
        sigma = ss.random_density(dim, dim, stream.next_uint64())
        expected = ss.trace_distance(rho, sigma)

        result = ss.solve_saddle(
            ss.StateSet(dim=dim, states=(rho,)),
            ss.StateSet(dim=dim, states=(sigma,)),
            config,
        )
        worst_bound = max(
            worst_bound,
            abs(result.lower_bound - expected),
            abs(result.upper_bound - expected),
        )
        achieved = ss.pair_gap(ss.helstrom_measurement(rho, sigma), rho, sigma)
        worst_helstrom = max(worst_helstrom, abs(achieved - expected))
    assert worst_bound <= 1e-4
    assert worst_helstrom <= 1e-9
    print(
        f"\n[criterion 1] PASS - {CRIT1_PAIRS} singleton pairs, worst bound error "
        f"{worst_bound:.2e} (<= 1e-4), worst achieved-gap error {worst_helstrom:.2e} (<= 1e-9)"
    )


def test_criterion_2_strong_duality(criterion2_runs):
    """Duality gap <= 1e-3 within 50 iterations; weak duality at every checkpoint."""
    worst_gap = 0.0
    worst_rounds = 0
    total_rounds = 0
    for k, set0, set1, result in criterion2_runs:
        assert result.converged, (
            f"instance {k} (dim {set0.dim}, {len(set0)}x{len(set1)}) "
            f"gap {result.gap:.3e} after {result.rounds_used} iterations"
        )
        assert result.gap <= 1e-3
        for point in result.trace:
            assert point.lower_bound <= point.upper_bound + 1e-9
        worst_gap = max(worst_gap, result.gap)
        worst_rounds = max(worst_rounds, result.rounds_used)
        total_rounds += result.rounds_used
    assert worst_rounds <= 50
    assert total_rounds <= 1000

    # The same instances also reach a gap of 1e-6.
    tight = ss.SolverConfig(max_rounds=20000, target_gap=1e-6)
    tight_total = 0
    for k, set0, set1, _ in criterion2_runs:
        result = ss.solve_saddle(set0, set1, tight)
        assert result.converged, f"instance {k}: gap {result.gap:.3e} at 1e-6"
        tight_total += result.rounds_used
    print(
        f"\n[criterion 2] PASS - {CRIT2_INSTANCES} instances converged; worst gap "
        f"{worst_gap:.2e} (<= 1e-3), most iterations {worst_rounds} (<= 50), "
        f"{total_rounds} in all (<= 1000), weak duality held at every checkpoint; "
        f"all converged at 1e-6 in {tight_total} iterations"
    )


def test_criterion_3_qubit_oracles():
    """Solver value sandwiched by the exhaustive qubit oracles."""
    config = ss.SolverConfig(max_rounds=20000, target_gap=1e-4)
    worst_brute = 0.0
    worst_grid_slack = -np.inf
    for k in range(CRIT3_INSTANCES):
        set0, set1 = random_instance(10_000 + k, dims=(2,), max_states=3)
        result = ss.solve_saddle(set0, set1, config)
        value = result.upper_bound

        brute = ss.brute_force_epsilon_d2(set0, set1, 0.02)
        assert abs(value - brute) <= 0.05
        worst_brute = max(worst_brute, abs(value - brute))

        grid = ss.mixture_grid_oracle(set0, set1, 0.05)
        assert grid >= result.upper_bound - 0.02
        worst_grid_slack = max(worst_grid_slack, result.upper_bound - grid)
    print(
        f"\n[criterion 3] PASS - {CRIT3_INSTANCES} qubit instances; worst |value - brute| "
        f"{worst_brute:.3f} (<= 0.05), worst upper-vs-grid slack {worst_grid_slack:.3f} "
        f"(<= 0.02)"
    )


def test_criterion_4_forward_direction(criterion2_runs):
    """Sampled mixtures never dip under the witness margin (1000 trials each)."""
    worst = -np.inf
    for k, set0, set1, result in criterion2_runs:
        report = ss.certify_forward(
            result.measurement, set0, set1, trials=1000, seed=40_000 + k
        )
        assert report.max_violation <= 1e-9
        worst = max(worst, report.max_violation)
    print(
        f"\n[criterion 4] PASS - {CRIT2_INSTANCES} witnesses x 1000 mixture pairs, "
        f"max violation {worst:.2e} (<= 1e-9)"
    )


def test_criterion_5_degenerate_overlap():
    """S0 = {|0><0|, |1><1|} vs S1 = {I/2}: margin 0, uniform worst mixture."""
    set0 = state_set(KET0, KET1)
    set1 = state_set(MIXED2)
    result = ss.solve_saddle(set0, set1, ss.SolverConfig(target_gap=1e-4))
    assert result.upper_bound <= 1e-4
    tv = 0.5 * float(np.abs(result.best_mu0 - np.array([0.5, 0.5])).sum())
    assert tv <= 0.05
    print(
        f"\n[criterion 5] PASS - upper bound {result.upper_bound:.2e} (<= 1e-4), "
        f"mu0 total variation from uniform {tv:.2e} (<= 0.05)"
    )


def test_criterion_6_linear_algebra_substrate():
    """hermitian_eig reconstruction at 1e-10 and projector optimality at 1e-8."""
    rng = np.random.RandomState(606)
    worst_recon = 0.0
    for _ in range(CRIT6_MATRICES):
        dim = 1 + rng.randint(16)
        raw = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        h = (raw + raw.conj().T) / 2.0
        dec = hermitian_eig(h)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        worst_recon = max(worst_recon, float(np.linalg.norm(rebuilt - h)))
    assert worst_recon <= 1e-10

    worst_excess = -np.inf
    for _ in range(20):
        dim = 2 + rng.randint(3)
        raw = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        h = (raw + raw.conj().T) / 2.0
        baseline = trace(positive_part_projector(h) @ h).real
        for _ in range(1000):
            rank = rng.randint(0, dim + 1)
            if rank == 0:
                q = np.zeros((dim, dim), dtype=complex)
            else:
                g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
                orth, _ = np.linalg.qr(g)
                q = orth @ orth.conj().T
            excess = trace(q @ h).real - baseline
            worst_excess = max(worst_excess, excess)
            assert excess <= 1e-8
    print(
        f"\n[criterion 6] PASS - {CRIT6_MATRICES} reconstructions, worst Frobenius error "
        f"{worst_recon:.2e} (<= 1e-10); projector excess vs 20x1000 random projectors "
        f"{worst_excess:.2e} (<= 1e-8)"
    )


def test_criterion_7_determinism_and_round_trip(tmp_path, capsys):
    """Repeated cmd_solve emits identical bytes; CLI files re-parse bit-identically."""
    s0 = tmp_path / "s0.json"
    s1 = tmp_path / "s1.json"
    assert cli.run(["random", "--dim", "3", "--count", "3", "--seed", "70", "--out", str(s0)]) == 0
    assert cli.run(["random", "--dim", "3", "--count", "2", "--seed", "71", "--out", str(s1)]) == 0
    capsys.readouterr()

    t_path = tmp_path / "T.json"
    outputs = []
    for _ in range(2):
        code = cli.run(["solve", str(s0), str(s1), "--json", "--out", str(t_path)])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    # every CLI-written file re-parses to bit-identical matrices
    for path in (s0, s1):
        loaded = stateio.load_state_set(str(path))
        rewritten = tmp_path / "rt.json"
        stateio.save_state_set(str(rewritten), loaded)
        again = stateio.load_state_set(str(rewritten))
        for a, b in zip(loaded.states, again.states):
            assert a.matrix.tobytes() == b.matrix.tobytes()
    witness = stateio.load_measurement(str(t_path))
    doc = json.loads(outputs[0])
    from_json = stateio.parse_matrix(
        doc["result"]["measurement"]["matrix"], witness.dim, "payload"
    )
    assert witness.matrix.tobytes() == from_json.tobytes()
    print(
        "\n[criterion 7] PASS - repeated solve runs byte-identical; state and measurement "
        "files round-trip to bit-identical matrices"
    )
