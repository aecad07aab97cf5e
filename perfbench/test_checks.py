"""The benchmark's output checks accept real output and reject corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from statesep import cli, stateio  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speedclock import SpeedClock  # noqa: E402


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """crit2 instance 3 (d=2, 2x2 states) solved and certified through the CLI."""
    directory = tmp_path_factory.mktemp("instance")
    (f,) = workloads.write([workloads._crit2_instance(3)], str(directory))
    outputs = {}
    for kind, argv in (("solve", f.solve_argv()), ("certify", f.certify_argv())):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0
        outputs[kind] = out.getvalue()
    return {
        "files": f,
        "set0": checks.read_states(f.set0),
        "set1": checks.read_states(f.set1),
        "witness": checks.read_witness(f.witness),
        **outputs,
    }


def _edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["result"])
    return stateio.dumps(doc)


def _check_solve(s, text, witness=None):
    w = s["witness"] if witness is None else witness
    return checks.check_solve(text, w, s["set0"], s["set1"], s["files"].instance.gap)


def _check_certify(s, text):
    return checks.check_certify(text, s["witness"], s["set0"], s["set1"],
                                s["files"].instance.trials)


def test_real_output_passes(solved):
    _check_solve(solved, solved["solve"])
    _check_certify(solved, solved["certify"])


def test_bench_rejects_output_that_changes_between_passes(solved):
    f = solved["files"]
    with SpeedClock() as clock:
        bench = run.Bench([f], [(solved["set0"], solved["set1"])], clock)
        bench.instance(0)
        assert (bench.attempted, bench.failed, bench.wrong) == (2, 0, 0)
        bench.first_output[("certify", 0)] += " "
        bench.instance(0)
        assert (bench.attempted, bench.failed, bench.wrong) == (4, 1, 1)


@pytest.mark.parametrize("field,delta", [
    ("upper_bound", -1e-6),
    ("upper_bound", +1e-6),
    ("lower_bound", +1e-6),
    ("gap", 1e-6),
])
def test_solve_bound_nudged(solved, field, delta):
    def edit(r):
        r[field] += delta
    with pytest.raises(checks.CheckError, match=field):
        _check_solve(solved, _edited(solved["solve"], edit))


def test_solve_gap_above_target(solved):
    gap = json.loads(solved["solve"])["result"]["gap"]
    with pytest.raises(checks.CheckError, match="above"):
        checks.check_solve(solved["solve"], solved["witness"], solved["set0"],
                           solved["set1"], target_gap=gap / 2.0)


def test_witness_scaled_past_one(solved):
    scaled = solved["witness"] * 1.01

    def edit(r):
        r["measurement"]["matrix"] = stateio.matrix_to_jsonable(scaled)
    with pytest.raises(checks.CheckError, match="spectrum"):
        _check_solve(solved, _edited(solved["solve"], edit), witness=scaled)


def test_witness_file_differs_from_payload(solved):
    other = solved["witness"].copy()
    other[0, 0] -= 1e-12
    with pytest.raises(checks.CheckError, match="witness file"):
        _check_solve(solved, solved["solve"], witness=other)


def test_best_mixture_moved(solved):
    def edit(r):
        mu = np.array(r["best_mu0"])
        r["best_mu0"] = list(np.roll(mu, 1)) if len(mu) > 1 else [1.0]
        r["best_mu1"] = list(np.roll(np.array(r["best_mu1"]), 1))
    with pytest.raises(checks.CheckError, match="upper_bound"):
        _check_solve(solved, _edited(solved["solve"], edit))


@pytest.mark.parametrize("field,delta", [
    ("margin", 1e-6),
    ("min_distance", -1e-6),
    ("max_violation", 1e-6),
])
def test_certify_value_nudged(solved, field, delta):
    def edit(r):
        r[field] += delta
    with pytest.raises(checks.CheckError, match=field):
        _check_certify(solved, _edited(solved["certify"], edit))


def test_certify_worst_mixture_not_at_min_distance(solved):
    def edit(r):
        r["worst_mu0"] = [1.0] + [0.0] * (len(r["worst_mu0"]) - 1)
    with pytest.raises(checks.CheckError, match="min_distance"):
        _check_certify(solved, _edited(solved["certify"], edit))


def test_certify_distance_under_margin(solved):
    # Three times the witness is no POVM element, and its margin exceeds the
    # smallest mixture distance: every other certify field is made consistent
    # with it, so only the distance-versus-margin check can bite.
    tripled = 3.0 * solved["witness"]
    margin = checks.min_pair_gap(tripled, solved["set0"], solved["set1"])

    def edit(r):
        r["margin"] = margin
        r["max_violation"] = margin - r["min_distance"]
    with pytest.raises(checks.CheckError, match="under margin"):
        checks.check_certify(_edited(solved["certify"], edit), tripled, solved["set0"],
                             solved["set1"], solved["files"].instance.trials)
