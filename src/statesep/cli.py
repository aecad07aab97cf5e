"""Command-line front end.

Commands: validate | solve | distance | helstrom | certify | random.
Exit codes: 0 success / converged / certified, 2 solver hit the iteration cap
without converging, 1 any error.  Stdout carries a human summary; --json
replaces it with a single deterministic JSON document (no timing fields),
so repeated runs on identical inputs emit identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import stateio
from ._rng import SplitMix64
from .discrimination import helstrom_measurement, pair_gap, trace_distance
from .errors import (
    DimensionMismatchError,
    InvalidMeasurementError,
    StatesepError,
)
from .saddle import SolverConfig, certify_forward, solve_saddle
from .states import StateSet, mixture_state, random_density, screen_densities, validate_density

CERT_TOL = 1e-9


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _fmt_weights(w) -> str:
    return ", ".join(_fmt(v) for v in np.asarray(w, dtype=float))


def _parse_weight_flag(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise StatesepError(f"cannot parse weights {text!r}: {exc}") from exc


# --- command implementations; each returns (exit_code, result_payload, lines) ---

def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    lines: list[str] = []
    sets = []
    dims: list[int] = []
    any_bad = False
    for path in (args.set0, args.set1):
        dim, raw = stateio.load_raw_states(path)
        dims.append(dim)
        verdicts = []
        passed = screen_densities([matrix for _, matrix in raw])
        for k, (label, matrix) in enumerate(raw):
            name = f"state {k}" + (f" ({label})" if label else "")
            try:
                if not passed[k]:
                    validate_density(matrix)
                verdicts.append({"index": k, "label": label, "ok": True, "error": None})
                lines.append(f"{path}: {name}: ok")
            except StatesepError as exc:
                any_bad = True
                verdicts.append(
                    {"index": k, "label": label, "ok": False,
                     "error": f"{type(exc).__name__}: {exc}"}
                )
                lines.append(f"{path}: {name}: {type(exc).__name__}: {exc}")
        sets.append({"path": path, "dim": dim, "states": verdicts})
    dims_match = dims[0] == dims[1]
    if not dims_match:
        any_bad = True
        lines.append(f"dimension mismatch: {dims[0]} vs {dims[1]}")
    payload = {"sets": sets, "dims_match": dims_match, "ok": not any_bad}
    return (1 if any_bad else 0), payload, lines


def _cmd_solve(args) -> tuple[int, dict, list[str]]:
    set0 = stateio.load_state_set(args.set0)
    set1 = stateio.load_state_set(args.set1)
    config = SolverConfig(max_rounds=args.rounds, target_gap=args.gap)
    result = solve_saddle(set0, set1, config)
    payload = {
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "gap": result.gap,
        "converged": result.converged,
        "rounds_used": result.rounds_used,
        "mu0": [float(v) for v in result.mu0],
        "mu1": [float(v) for v in result.mu1],
        "best_mu0": [float(v) for v in result.best_mu0],
        "best_mu1": [float(v) for v in result.best_mu1],
        "trace": [
            {"round": c.round, "lower_bound": c.lower_bound,
             "upper_bound": c.upper_bound, "gap": c.gap}
            for c in result.trace
        ],
        "measurement": stateio.measurement_to_jsonable(result.measurement),
    }
    lines = [
        f"dim {set0.dim}, |S0| = {len(set0)}, |S1| = {len(set1)}",
        f"lower bound (achieved margin):  {_fmt(result.lower_bound)}",
        f"upper bound (mixture distance): {_fmt(result.upper_bound)}",
        f"duality gap: {_fmt(result.gap)} (target {_fmt(config.target_gap)})",
        f"converged: {'yes' if result.converged else 'no'} "
        f"in {result.rounds_used} iterations",
        f"mu0: {_fmt_weights(result.mu0)}",
        f"mu1: {_fmt_weights(result.mu1)}",
    ]
    if args.out:
        stateio.save_measurement(args.out, result.measurement)
        payload["out"] = args.out
        lines.append(f"measurement written to {args.out}")
    return (0 if result.converged else 2), payload, lines


def _cmd_distance(args) -> tuple[int, dict, list[str]]:
    set0 = stateio.load_state_set(args.set0)
    set1 = stateio.load_state_set(args.set1)
    n0, n1 = len(set0), len(set1)
    mu0 = np.full(n0, 1.0 / n0) if args.mu0 is None else _parse_weight_flag(args.mu0)
    mu1 = np.full(n1, 1.0 / n1) if args.mu1 is None else _parse_weight_flag(args.mu1)
    # mixture_state checks each weight vector.
    dist = trace_distance(mixture_state(mu0, set0), mixture_state(mu1, set1))
    payload = {
        "distance": dist,
        "mu0": [float(v) for v in mu0],
        "mu1": [float(v) for v in mu1],
    }
    return 0, payload, [f"trace distance: {_fmt(dist)}"]


def _cmd_helstrom(args) -> tuple[int, dict, list[str]]:
    rho = stateio.load_single_state(args.rho)
    sigma = stateio.load_single_state(args.sigma)
    t = helstrom_measurement(rho, sigma)
    gap = pair_gap(t, rho, sigma)
    payload = {"gap": gap, "measurement": stateio.measurement_to_jsonable(t)}
    lines = [f"achieved gap: {_fmt(gap)}"]
    if args.out:
        stateio.save_measurement(args.out, t)
        payload["out"] = args.out
        lines.append(f"measurement written to {args.out}")
    return 0, payload, lines


def _cmd_certify(args) -> tuple[int, dict, list[str]]:
    set0 = stateio.load_state_set(args.set0)
    set1 = stateio.load_state_set(args.set1)
    try:
        t = stateio.load_measurement(args.measurement)
    except StatesepError as exc:
        # stateio's errors already name the file.
        raise InvalidMeasurementError(str(exc)) from exc
    if t.dim != set0.dim:
        raise DimensionMismatchError(
            f"measurement dim {t.dim} != state dim {set0.dim}"
        )
    report = certify_forward(t, set0, set1, trials=args.trials, seed=args.seed)
    certified = report.max_violation <= CERT_TOL
    payload = {
        "margin": report.margin,
        "max_violation": report.max_violation,
        "min_distance": report.min_distance,
        "trials": report.trials,
        "worst_mu0": [float(v) for v in report.worst_mu0],
        "worst_mu1": [float(v) for v in report.worst_mu1],
        "certified": certified,
    }
    lines = [
        f"margin (min pair gap): {_fmt(report.margin)}",
        f"sampled mixture pairs: {report.trials}",
        f"smallest mixture distance: {_fmt(report.min_distance)}",
        f"max violation: {_fmt(report.max_violation)} "
        f"({'certified' if certified else 'VIOLATED'})",
    ]
    return (0 if certified else 1), payload, lines


def _cmd_random(args) -> tuple[int, dict, list[str]]:
    rank = args.rank if args.rank is not None else args.dim
    seeds = SplitMix64(args.seed)
    states = [
        random_density(args.dim, rank, seeds.next_uint64())
        for _ in range(args.count)
    ]
    sset = StateSet(dim=args.dim, states=tuple(states))
    stateio.save_state_set(args.out, sset)
    payload = {
        "out": args.out,
        "dim": args.dim,
        "count": args.count,
        "rank": rank,
        "seed": args.seed,
    }
    return 0, payload, [f"wrote {args.count} states (dim {args.dim}, rank {rank}) to {args.out}"]


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "distance": _cmd_distance,
    "helstrom": _cmd_helstrom,
    "certify": _cmd_certify,
    "random": _cmd_random,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesep",
        description="Separation margins and witness measurements for two sets "
                    "of quantum states.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document instead of the summary")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human summary")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check every state in two set files")
    p.add_argument("set0")
    p.add_argument("set1")

    p = sub.add_parser("solve", parents=[common],
                       help="compute the optimal separation margin")
    p.add_argument("set0")
    p.add_argument("set1")
    p.add_argument("--rounds", type=int, default=20000, help="iteration cap")
    p.add_argument("--gap", type=float, default=1e-4, help="target duality gap")
    p.add_argument("--out", default=None, help="write the witness measurement here")

    p = sub.add_parser("distance", parents=[common],
                       help="trace distance between two set mixtures")
    p.add_argument("set0")
    p.add_argument("set1")
    p.add_argument("--mu0", default=None, help="comma-separated weights for set0")
    p.add_argument("--mu1", default=None, help="comma-separated weights for set1")

    p = sub.add_parser("helstrom", parents=[common],
                       help="optimal two-state measurement")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--out", default=None, help="write the measurement here")

    p = sub.add_parser("certify", parents=[common],
                       help="sample mixtures against a measurement's margin")
    p.add_argument("set0")
    p.add_argument("set1")
    p.add_argument("measurement")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("random", parents=[common],
                       help="write a seeded random state-set file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--rank", type=int, default=None, help="default: full rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One per process: building the tree costs about 15 parses.
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, payload, lines = _COMMANDS[args.command](args)
    except (StatesepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_ms = int(round((time.perf_counter() - started) * 1000.0))
    if args.json:
        inputs = {k: v for k, v in vars(args).items()
                  if k not in ("command", "json", "quiet")}
        print(stateio.dumps(
            {"command": args.command, "inputs": inputs, "result": payload}
        ))
    elif not args.quiet:
        for line in lines:
            print(line)
        print(f"({wall_ms} ms)")
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
