"""Command-line front end.

Commands: validate | solve | distance | helstrom | certify | random.
Exit codes: 0 success / converged / certified, 2 solver hit the iteration cap
without converging, 1 any error, a usage error included.  Stdout carries a
human summary; --json replaces it with a single deterministic JSON document
(no timing fields), so repeated runs on identical inputs emit identical
bytes.  Payloads carry the library's weight vectors and matrices as they
are; stateio.dumps renders the arrays.

The commands check nothing themselves: validate prints the verdicts of
stateio.load_state_verdicts, which validates as the loaders do.
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
from .errors import InvalidMeasurementError, StatesepError
from .saddle import SolverConfig, certify_forward, solve_saddle
from .states import StateSet, mixture_state, random_density

# The largest violation certify accepts.  Validation admits a T with
# spectrum in [-delta, 1 + delta], delta = 1e-9, and for such a T every
# mixture pair, Delta the difference of its mixtures, has
# margin - max_pair_gap <= Tr (T - clip(T)) Delta <= delta ||Delta||_1,
# clip(T) being T with its spectrum clipped to [0, 1], which no pair gap
# beats.  Each validated state has trace norm at most 1 + (2d + 1) 1e-9, so
# ||Delta||_1 <= 2 + O(d 1e-9), and 2e-9 covers the validator's slack; the
# other 1e-9 is the allowance for rounding.
CERT_TOL = 3e-9


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
    for path in (args.set0, args.set1):
        dim, judged = stateio.load_state_verdicts(path)
        verdicts = []
        for k, (label, exc) in enumerate(judged):
            name = f"state {k}" + (f" ({label})" if label else "")
            error = None if exc is None else f"{type(exc).__name__}: {exc}"
            verdicts.append({"index": k, "label": label, "ok": exc is None, "error": error})
            lines.append(f"{path}: {name}: {error or 'ok'}")
        sets.append({"path": path, "dim": dim, "states": verdicts})
    dim0, dim1 = sets[0]["dim"], sets[1]["dim"]
    if dim0 != dim1:
        lines.append(f"dimension mismatch: {dim0} vs {dim1}")
    ok = dim0 == dim1 and all(v["ok"] for s in sets for v in s["states"])
    payload = {"sets": sets, "dims_match": dim0 == dim1, "ok": ok}
    return (0 if ok else 1), payload, lines


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
        "best_mu0": result.best_mu0,
        "best_mu1": result.best_mu1,
        "trace": [
            {"round": c.round, "lower_bound": c.lower_bound,
             "upper_bound": c.upper_bound, "gap": c.gap}
            for c in result.trace
        ],
        "measurement": {"dim": result.measurement.dim, "matrix": result.measurement.matrix},
    }
    lines = [
        f"dim {set0.dim}, |S0| = {len(set0)}, |S1| = {len(set1)}",
        f"lower bound (achieved margin):  {_fmt(result.lower_bound)}",
        f"upper bound (mixture distance): {_fmt(result.upper_bound)}",
        f"duality gap: {_fmt(result.gap)} (target {_fmt(config.target_gap)})",
        f"converged: {'yes' if result.converged else 'no'} "
        f"in {result.rounds_used} iterations",
        f"mu0: {_fmt_weights(result.best_mu0)}",
        f"mu1: {_fmt_weights(result.best_mu1)}",
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
    # dumps renders the default array and the flag's parsed list alike.
    payload = {"distance": dist, "mu0": mu0, "mu1": mu1}
    return 0, payload, [f"trace distance: {_fmt(dist)}"]


def _cmd_helstrom(args) -> tuple[int, dict, list[str]]:
    rho = stateio.load_single_state(args.rho)
    sigma = stateio.load_single_state(args.sigma)
    t = helstrom_measurement(rho, sigma)
    gap = pair_gap(t, rho, sigma)
    payload = {"gap": gap, "measurement": {"dim": t.dim, "matrix": t.matrix}}
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
    report = certify_forward(t, set0, set1, trials=args.trials, seed=args.seed)
    certified = report.max_violation <= CERT_TOL
    payload = {
        "margin": report.margin,
        "max_violation": report.max_violation,
        "min_distance": report.min_distance,
        "trials": report.trials,
        "worst_mu0": report.worst_mu0,
        "worst_mu1": report.worst_mu1,
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


class _Parser(argparse.ArgumentParser):
    # A usage error exits 1, as every other error does, not argparse's 2,
    # which solve gives a run that hits its iteration cap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--rounds", type=int, default=SolverConfig.max_rounds, help="iteration cap")
    p.add_argument("--gap", type=float, default=SolverConfig.target_gap, help="target duality gap")
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
