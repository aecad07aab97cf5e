"""statesep benchmark: time to a certified margin, end to end and per layer.

    python3 perfbench/run.py --workload crit2 --seed 1 --seconds 30 --trace 0

Run from the repository root.  For every instance of the workload the
benchmark runs the two commands a user runs, in-process through
`statesep.cli.run` with stdout captured, and checks each output against a
recomputation made apart from the program (see checks.py):

    statesep solve   S0 S1 --json --rounds R --gap G --out W
    statesep certify S0 S1 W --json --trials N --seed K

`--trace 0` times the workload and prints the end-to-end metrics; `--trace
1` runs one untraced and one traced pass and prints the per-layer metrics
with the tracing overhead.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One thread of work: keep numpy's BLAS from starting a pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up runs this many times per run and setup_s is their median: one
# set-up takes 0.1-1 s, too short for a single timing to be steady.
SETUP_REPEATS = 5


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Bench:
    """Runs and checks the operations of one workload, keeping their timings."""

    def __init__(self, files, inputs, clock):
        self.files = files
        self.clock = clock
        self.inputs = inputs  # (set0, set1) arrays per instance, read apart
        self.times = {"solve": [[] for _ in files], "certify": [[] for _ in files]}
        self.first_output: dict[tuple[str, int], str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def _op(self, kind: str, k: int) -> float:
        from statesep import cli

        import checks

        f = self.files[k]
        argv = f.solve_argv() if kind == "solve" else f.certify_argv()
        self.attempted += 1
        out = io.StringIO()
        started = self.clock.mark()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
        except Exception:  # a crash is a failed operation; the run goes on
            elapsed = self.clock.seconds(started)
            self.failed += 1
            _log(f"{f.instance.name} {kind}: raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = self.clock.seconds(started)
        if code != 0:
            self.failed += 1
            _log(f"{f.instance.name} {kind}: exit code {code}")
            return elapsed
        text = out.getvalue()
        set0, set1 = self.inputs[k]
        try:
            witness = checks.read_witness(f.witness)
            if kind == "solve":
                checks.check_solve(text, witness, set0, set1, f.instance.gap)
            else:
                checks.check_certify(text, witness, set0, set1, f.instance.trials)
            first = self.first_output.setdefault((kind, k), text)
            if text != first:
                raise checks.CheckError("output differs from an earlier pass")
        except (checks.CheckError, KeyError, OSError, TypeError, ValueError) as exc:
            self.failed += 1
            self.wrong += 1
            _log(f"{f.instance.name} {kind}: wrong output: {exc!r}")
        return elapsed

    def instance(self, k: int) -> tuple[float, float]:
        return self._op("solve", k), self._op("certify", k)

    def timed_pass(self) -> None:
        gc.collect()
        for k in range(len(self.files)):
            solve_s, certify_s = self.instance(k)
            self.times["solve"][k].append(solve_s)
            self.times["certify"][k].append(certify_s)

    def total(self, kind: str) -> float:
        """Sum over instances of each operation's median time."""
        return sum(statistics.median(t) for t in self.times[kind])


def _set_up(workload: str, seed: int, directory: str):
    import workloads

    return workloads.write(workloads.WORKLOADS[workload](seed), directory)


def _digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        for path in (f.set0, f.set1):
            h.update(Path(path).read_bytes())
    return h.hexdigest()


def _timed_run(bench: Bench, workload: str, seconds: float,
               setup_times: list[float]) -> dict:
    started = time.perf_counter()
    pass_times = []
    while True:
        t0 = time.perf_counter()
        bench.timed_pass()
        pass_times.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.mean(pass_times) > seconds:
            break
    _log(f"{workload}: {len(pass_times)} timed passes of {statistics.mean(pass_times):.2f} s "
         f"wall; machine speed {bench.clock.speed():.3f} of the reference")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (bench.total("solve"), "s"),
        "certify_s": (bench.total("certify"), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _traced_run(bench: Bench, workload: str, seed: int, work: str) -> dict:
    import tracing

    def one_pass() -> float:
        gc.collect()
        started = bench.clock.mark()
        _set_up(workload, seed, work)
        for k in range(len(bench.files)):
            bench.instance(k)
        return bench.clock.seconds(started)

    plain = one_pass()
    tracer = tracing.Tracer(bench.clock.now)
    tracer.install()
    started = bench.clock.mark()
    try:
        traced = one_pass()
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        _log(f"trace: wrapped name {name} is missing")
    metrics = tracer.metrics(bench.clock.speed(started))
    metrics["trace.overhead_pct"] = ((traced - plain) / plain * 100.0, "%")
    _log(f"{workload}: untraced pass {plain:.2f} s, traced pass {traced:.2f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("crit2", "wide", "deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "statesep" / "__init__.py").is_file():
        _log(f"error: the statesep sources are not at {SRC}; run from a checkout")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    from speedclock import SpeedClock

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work, \
            SpeedClock() as clock:
        setup_times = []
        digests = set()
        for _ in range(SETUP_REPEATS):
            started = clock.mark()
            files = _set_up(args.workload, args.seed, work)
            setup_times.append(clock.seconds(started))
            digests.add(_digest(files))
        if len(digests) != 1:
            _log("error: repeated set-ups wrote different files")
            return 1
        inputs = [(checks.read_states(f.set0), checks.read_states(f.set1)) for f in files]
        bench = Bench(files, inputs, clock)
        # Warm-up: first calls and lazy imports finish before timing starts,
        # and the first instance's output becomes the reference that the
        # timed passes must repeat byte for byte.
        bench.instance(0)
        if args.trace:
            metrics = _traced_run(bench, args.workload, args.seed, work)
        else:
            metrics = _timed_run(bench, args.workload, args.seconds, setup_times)

    result = {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
