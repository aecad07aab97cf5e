"""Seeded workload instances for the statesep benchmark.

A workload is a list of instances; an instance is a pair of state sets plus
the arguments its `solve` and `certify` commands run with.  Every instance
is built only through the package's public generators (`random_density`,
`validate_density`) and written with `stateio`, which is the work `setup_s`
times.

How the benchmark seed is used differs by workload, for one reason: the
solver's work depends sharply on the instance (on criterion 2 the rounds to
convergence range from 100 to 19,600), so fresh random instances per seed
would make the run-to-run spread of `solve_s` a property of the seeds, not
of the program.

- crit2 is the fixed set of the 50 criterion-2 instances.  The seed only
  permutes the order in which they run.
- wide and deep are fixed base instances that the seed moves by symmetries
  of the problem: one common random unitary U applied to every state of
  both sets (rho -> U rho U^dag) and a random order of the states within
  each set.  The optimal margin and, in exact arithmetic, the solver's
  trajectory are invariant under both, so the amount of work stays put
  while every input bit changes with the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from statesep import StateSet, stateio, states
from statesep._rng import SplitMix64


@dataclass(frozen=True)
class Instance:
    """One set pair and the command arguments used on it."""

    name: str
    set0: StateSet
    set1: StateSet
    rounds: int
    gap: float
    trials: int
    certify_seed: int


@dataclass(frozen=True)
class InstanceFiles:
    """Where an instance was written; `witness` is the path `solve` writes."""

    instance: Instance
    set0: str
    set1: str
    witness: str

    def solve_argv(self) -> list[str]:
        i = self.instance
        return ["solve", self.set0, self.set1, "--json", "--rounds", str(i.rounds),
                "--gap", repr(i.gap), "--out", self.witness]

    def certify_argv(self) -> list[str]:
        i = self.instance
        return ["certify", self.set0, self.set1, self.witness, "--json",
                "--trials", str(i.trials), "--seed", str(i.certify_seed)]


# --- crit2: the acceptance-criterion-2 instances, reproduced ---

CRIT2_INSTANCES = 50


def _crit2_instance(k: int) -> Instance:
    # The same draw order as the acceptance suite's random_instance(k,
    # dims=(2, 3, 4), max_states=4): dim, sizes, then (rank, seed) per state.
    rng = SplitMix64(k)
    dims = (2, 3, 4)
    dim = dims[rng.next_uint64() % len(dims)]
    l0 = 1 + rng.next_uint64() % 4
    l1 = 1 + rng.next_uint64() % 4

    def draw():
        rank = 1 + rng.next_uint64() % dim
        return states.random_density(dim, rank, rng.next_uint64())

    set0 = StateSet(dim=dim, states=tuple(draw() for _ in range(l0)))
    set1 = StateSet(dim=dim, states=tuple(draw() for _ in range(l1)))
    return Instance(f"crit2-{k:02d}", set0, set1, rounds=20000, gap=1e-3,
                    trials=100, certify_seed=40_000 + k)


def crit2(seed: int) -> list[Instance]:
    instances = [_crit2_instance(k) for k in range(CRIT2_INSTANCES)]
    return [instances[i] for i in _permutation(len(instances), SplitMix64(seed))]


# --- symmetries applied by the seed to wide and deep ---

def _permutation(n: int, rng: SplitMix64) -> list[int]:
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_uint64() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _random_unitary(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = np.array(rng.normals(2 * dim * dim)).reshape(dim, dim, 2)
    q, r = np.linalg.qr(z[..., 0] + 1j * z[..., 1])
    diag = r.diagonal()
    return q * (diag / np.abs(diag))


def _moved(matrices: list[np.ndarray], u: np.ndarray, rng: SplitMix64) -> StateSet:
    rotated = []
    for k in _permutation(len(matrices), rng):
        m = u @ matrices[k] @ u.conj().T
        rotated.append(states.validate_density((m + m.conj().T) / 2.0))
    return StateSet(dim=u.shape[0], states=tuple(rotated))


def _moved_instance(name, base0, base1, seed, **args) -> Instance:
    rng = SplitMix64(seed)
    u = _random_unitary(base0[0].shape[0], rng)
    return Instance(name, _moved(base0, u, rng), _moved(base1, u, rng), **args)


# --- wide: two separated clusters of 256 states each at d = 4 ---

WIDE_STATES = 256
WIDE_DIM = 4
WIDE_WEIGHT = 0.4  # weight of the basis projector at each cluster's centre
WIDE_BASE_SEEDS = (1001, 2001)


def _cluster(k: int, seed: int) -> list[np.ndarray]:
    rng = SplitMix64(seed)
    centre = np.zeros((WIDE_DIM, WIDE_DIM), dtype=np.complex128)
    centre[k, k] = 1.0
    out = []
    for _ in range(WIDE_STATES):
        noise = states.random_density(WIDE_DIM, WIDE_DIM, rng.next_uint64()).matrix
        out.append(states.validate_density(
            WIDE_WEIGHT * centre + (1.0 - WIDE_WEIGHT) * noise).matrix)
    return out


def wide(seed: int) -> list[Instance]:
    base0 = _cluster(0, WIDE_BASE_SEEDS[0])
    base1 = _cluster(1, WIDE_BASE_SEEDS[1])
    return [_moved_instance("wide", base0, base1, seed, rounds=20000, gap=1e-3,
                            trials=1000, certify_seed=7)]


# --- deep: 2-3 full-rank states per set at d = 9, 12 and 16 ---

# (dim, |S0|, |S1|, base seed).  Each base converges at the first checkpoint,
# round 100, with its duality gap at least 28% under the 1e-2 target, so the
# rounding noise the seed's symmetries bring cannot move it to round 200.
DEEP_SHAPES = ((9, 2, 3, 9000), (12, 3, 2, 9002), (16, 2, 3, 9002))


def deep(seed: int) -> list[Instance]:
    moves = SplitMix64(seed)
    out = []
    for dim, l0, l1, base_seed in DEEP_SHAPES:
        rng = SplitMix64(base_seed)
        base = [states.random_density(dim, dim, rng.next_uint64()).matrix
                for _ in range(l0 + l1)]
        out.append(_moved_instance(
            f"deep-d{dim}", base[:l0], base[l0:], moves.next_uint64(),
            rounds=1000, gap=1e-2, trials=10, certify_seed=dim))
    return out


WORKLOADS = {"crit2": crit2, "wide": wide, "deep": deep}


def write(instances: list[Instance], directory: str) -> list[InstanceFiles]:
    """Write each instance's two set files; the witness path is left for solve."""
    out = []
    for inst in instances:
        base = os.path.join(directory, inst.name)
        files = InstanceFiles(inst, base + ".s0.json", base + ".s1.json",
                              base + ".witness.json")
        stateio.save_state_set(files.set0, inst.set0)
        stateio.save_state_set(files.set1, inst.set1)
        out.append(files)
    return out
