"""Distinguishability of two finite sets of quantum states.

The library computes the optimal separation margin between two state
sets, a witness measurement achieving it, and worst-case mixtures
certifying that nothing better exists.  Distance convention everywhere:
``trace_distance`` is the HALF trace norm, so an achievable margin eps
compares directly against mixture distances with no factor of 2.  The
upper bounds are ``max_pair_gap``, which equals the trace distance for
states of equal trace.
"""

from .discrimination import (
    GapReport,
    helstrom_measurement,
    is_separating,
    max_pair_gap,
    min_separation_gap,
    pair_gap,
    separation_gap,
    trace_distance,
)
from .errors import StatesepError
from .hermitian import (
    EigenDecomposition,
    hermitian_eig,
    positive_part_projector,
    trace,
)
from .oracles import brute_force_epsilon_d2, mixture_grid_oracle
from .saddle import (
    CertReport,
    Checkpoint,
    SaddleResult,
    SolverConfig,
    certify_forward,
    solve_saddle,
)
from .states import (
    DensityMatrix,
    PovmElement,
    StateSet,
    as_mixture_weights,
    mixture_state,
    random_density,
    validate_density,
    validate_povm_element,
)

__version__ = "0.1.0"

__all__ = [
    "CertReport",
    "Checkpoint",
    "DensityMatrix",
    "EigenDecomposition",
    "GapReport",
    "PovmElement",
    "SaddleResult",
    "SolverConfig",
    "StateSet",
    "StatesepError",
    "as_mixture_weights",
    "brute_force_epsilon_d2",
    "certify_forward",
    "helstrom_measurement",
    "hermitian_eig",
    "is_separating",
    "max_pair_gap",
    "min_separation_gap",
    "mixture_grid_oracle",
    "mixture_state",
    "pair_gap",
    "positive_part_projector",
    "random_density",
    "separation_gap",
    "solve_saddle",
    "trace",
    "trace_distance",
    "validate_density",
    "validate_povm_element",
]
