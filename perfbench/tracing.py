"""Per-layer spans for the traced run, recorded from outside the program.

Each layer's public functions are wrapped where the other modules look
them up (a `from .hermitian import hermitian_eig` in `saddle` is its own
binding, so `statesep.saddle.hermitian_eig` is wrapped apart from
`statesep.hermitian.hermitian_eig`).  Every call becomes a span with a
start, an end and the span that was open when it began.  A layer's self
time is its spans' duration minus the time their child spans cover.

Spans live in flat arrays until the run ends.  A wrapped name that the
program no longer has is reported as missing, and the metrics that depend
only on missing names are left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
from array import array

import numpy as np

# (layer kind, module, attribute) for every binding the measured path uses.
WRAPS = (
    ("eig", "statesep.hermitian", "hermitian_eig"),
    ("eig", "statesep.saddle", "hermitian_eig"),
    ("eig", "statesep.discrimination", "hermitian_eig"),
    ("eig", "statesep.states", "hermitian_eig"),
    ("validate", "statesep.states", "validate_density"),
    ("validate", "statesep.stateio", "validate_density"),
    ("mixture", "statesep.saddle", "mixture_state"),
    ("separation_gap", "statesep.saddle", "separation_gap"),
    ("separation_gap", "statesep.discrimination", "separation_gap"),
    ("trace_distance", "statesep.saddle", "trace_distance"),
    ("solve", "statesep.cli", "solve_saddle"),
    ("certify", "statesep.cli", "certify_forward"),
    ("load", "statesep.stateio", "load_state_set"),
    ("load", "statesep.stateio", "load_measurement"),
    ("write", "statesep.stateio", "save_state_set"),
    ("write", "statesep.stateio", "save_measurement"),
    ("cli", "statesep.cli", "run"),
)
KINDS = tuple(dict.fromkeys(kind for kind, _, _ in WRAPS))

# metric -> (unit, kinds whose spans it is computed from)
METRICS = {
    "hermitian.eig_calls": ("count", ("eig",)),
    "hermitian.eig_us": ("us", ("eig",)),
    "hermitian.eig_s": ("s", ("eig",)),
    "states.validate_calls": ("count", ("validate",)),
    "states.validate_s": ("s", ("validate",)),
    "states.mixture_s": ("s", ("mixture",)),
    "discrimination.separation_gap_calls": ("count", ("separation_gap",)),
    "discrimination.separation_gap_s": ("s", ("separation_gap",)),
    "discrimination.trace_distance_s": ("s", ("trace_distance",)),
    "saddle.rounds": ("count", ("solve",)),
    "saddle.round_us": ("us", ("solve",)),
    "saddle.solve_self_s": ("s", ("solve",)),
    "saddle.eigs_per_round": ("ratio", ("solve", "eig")),
    "saddle.certify_trial_us": ("us", ("certify",)),
    "saddle.certify_eigs_per_trial": ("ratio", ("certify", "eig")),
    "stateio.load_s": ("s", ("load",)),
    "stateio.write_s": ("s", ("write",)),
    "cli.self_s": ("s", ("cli",)),
}


class Tracer:
    """Installs the wrappers, records spans, and reduces them to metrics.

    `now` is the clock spans are read from; the benchmark passes one that
    stops while its speed-reference kernel runs.
    """

    def __init__(self, now):
        self._now = now
        self._kind = array("b")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.rounds = 0
        self.trials = 0

    def _span(self, kind: int, fn):
        def traced(*args, **kwargs):
            i = len(self._kind)
            self._kind.append(kind)
            self._parent.append(self._open[-1] if self._open else -1)
            self._end.append(0.0)
            self._open.append(i)
            self._start.append(self._now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[i] = self._now()
                self._open.pop()
            if KINDS[kind] == "solve":
                self.rounds += result.rounds_used
            elif KINDS[kind] == "certify":
                self.trials += result.trials
            return result
        return traced

    def install(self) -> None:
        for kind, module_name, attr in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._span(KINDS.index(kind), original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def metrics(self, speed: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric; times are multiplied by `speed`."""
        kind = np.frombuffer(self._kind, dtype=np.int8)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        duration = (np.frombuffer(self._end) - np.frombuffer(self._start)) * speed
        nested = parent >= 0
        child = np.zeros_like(duration)
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child

        # The solve or certify operation each span ran under (-1: none).
        solve, certify = KINDS.index("solve"), KINDS.index("certify")
        op = [-1] * len(self._kind)
        for i, (k, p) in enumerate(zip(self._kind, self._parent)):
            if k == solve or k == certify:
                op[i] = i
            elif p >= 0:
                op[i] = op[p]
        op = np.array(op, dtype=np.int64)
        op_kind = np.where(op >= 0, kind[np.maximum(op, 0)], -1)

        def of(name):
            return kind == KINDS.index(name)

        eig = of("eig")
        eig_calls = int(eig.sum())
        rounds = max(self.rounds, 1)
        trials = max(self.trials, 1)
        values = {
            "hermitian.eig_calls": eig_calls,
            "hermitian.eig_us": float(own[eig].sum()) / max(eig_calls, 1) * 1e6,
            "hermitian.eig_s": float(own[eig].sum()),
            "states.validate_calls": int(of("validate").sum()),
            "states.validate_s": float(own[of("validate")].sum()),
            "states.mixture_s": float(own[of("mixture")].sum()),
            "discrimination.separation_gap_calls": int(of("separation_gap").sum()),
            "discrimination.separation_gap_s": float(own[of("separation_gap")].sum()),
            "discrimination.trace_distance_s": float(own[of("trace_distance")].sum()),
            "saddle.rounds": self.rounds,
            "saddle.round_us": float(duration[of("solve")].sum()) / rounds * 1e6,
            "saddle.solve_self_s": float(own[of("solve")].sum()),
            "saddle.eigs_per_round": int((eig & (op_kind == solve)).sum()) / rounds,
            "saddle.certify_trial_us": float(duration[of("certify")].sum()) / trials * 1e6,
            "saddle.certify_eigs_per_trial":
                int((eig & (op_kind == certify)).sum()) / trials,
            "stateio.load_s": float(own[of("load")].sum()),
            "stateio.write_s": float(own[of("write")].sum()),
            "cli.self_s": float(own[of("cli")].sum()),
        }
        wrapped = {KINDS.index(k) for k, m, a in WRAPS if f"{m}.{a}" not in self.missing}
        return {
            name: (values[name], unit)
            for name, (unit, needs) in METRICS.items()
            if all(KINDS.index(k) in wrapped for k in needs)
        }
