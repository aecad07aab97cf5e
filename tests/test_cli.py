import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statesep as ss
from statesep import cli, stateio

from conftest import KET0, KET1, MIXED2, PLUS, random_instance, set_document, state_set


def run_cli(*argv):
    return cli.run(list(argv))


def write_set(path, *matrices):
    stateio.save_state_set(str(path), state_set(*matrices))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "orth0": write_set(tmp_path / "orth0.json", KET0),
        "orth1": write_set(tmp_path / "orth1.json", KET1),
        "basis": write_set(tmp_path / "basis.json", KET0, KET1),
        "mixed": write_set(tmp_path / "mixed.json", MIXED2),
        "tmp": tmp_path,
    }


class TestValidate:
    def test_ok_pair(self, files, capsys):
        assert run_cli("validate", files["orth0"], files["orth1"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 2

    def test_bad_trace_names_index(self, files, capsys):
        bad = files["tmp"] / "bad.json"
        doc = set_document(state_set(KET0, MIXED2))
        doc["states"][1]["matrix"][0][0]["re"] = 0.4  # trace 0.9
        bad.write_text(stateio.dumps(doc), encoding="utf-8")
        assert run_cli("validate", str(bad), files["orth1"]) == 1
        out = capsys.readouterr().out
        assert "state 1" in out and "BadTrace" in out

    def test_screened_file_reports_every_state(self, files, capsys, tmp_path):
        # The screen passes the valid states; the verdicts are validate_density's.
        matrices = [ss.random_density(2, 1 + k % 2, k).matrix for k in range(12)]
        matrices[3] = matrices[3] * 1.5
        matrices[8] = np.diag([1.0 + 2e-9, -2e-9])
        big = tmp_path / "big.json"
        stateio.save_state_set(str(big), ss.StateSet(
            dim=2, states=tuple(ss.DensityMatrix(m) for m in matrices)))
        assert run_cli("validate", str(big), files["orth1"], "--json") == 1
        verdicts = json.loads(capsys.readouterr().out)["result"]["sets"][0]["states"]
        for k, (verdict, m) in enumerate(zip(verdicts, matrices)):
            try:
                ss.validate_density(m)
                error = None
            except ss.StatesepError as exc:
                error = f"{type(exc).__name__}: {exc}"
            assert verdict == {"index": k, "label": None, "ok": error is None, "error": error}
        assert [v["ok"] for v in verdicts].count(False) == 2
        assert run_cli("validate", str(big), files["orth1"]) == 1
        out = capsys.readouterr().out
        assert "state 3: BadTraceError" in out and "state 8: NotPositiveError" in out

    def test_dim_mismatch(self, files, capsys, tmp_path):
        three = tmp_path / "three.json"
        stateio.save_state_set(
            str(three), ss.StateSet(dim=3, states=(ss.random_density(3, 3, 1),))
        )
        assert run_cli("validate", files["orth0"], str(three)) == 1
        assert "dimension mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    def test_non_finite_entry_named(self, files, capsys, tmp_path, literal):
        doc = set_document(state_set(KET0, MIXED2))
        doc["states"][1]["matrix"][0][1]["im"] = "PLACEHOLDER"
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal), encoding="utf-8")
        assert run_cli("validate", str(bad), files["orth1"]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: state 1[0][1]: entry field 'im' is not a finite number" in err

    def test_parse_error_exit_1(self, files, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        assert run_cli("validate", str(broken), files["orth1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting_exit_1(self, files, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        assert run_cli("solve", str(deep), files["orth1"]) == 1
        assert f"error: {deep}: JSON nested too deeply" in capsys.readouterr().err

    def test_over_long_integer_exit_1_names_path(self, files, capsys, tmp_path):
        doc = set_document(state_set(KET0, MIXED2))
        doc["states"][1]["matrix"][0][0]["re"] = "PLACEHOLDER"
        bad = tmp_path / "long.json"
        bad.write_text(json.dumps(doc).replace('"PLACEHOLDER"', "1" * 5001), encoding="utf-8")
        assert run_cli("validate", str(bad), files["orth1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: integer literal too long to parse")
        assert err.count("\n") == 1

    def test_non_utf8_exit_1_names_path(self, files, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"dim": 1, "states": [\xff]}')
        assert run_cli("solve", str(binary), files["orth1"]) == 1
        assert f"error: {binary}: not UTF-8 text" in capsys.readouterr().err


class TestSolve:
    def test_orthogonal_converges(self, files, capsys):
        assert run_cli("solve", files["orth0"], files["orth1"]) == 0
        out = capsys.readouterr().out
        assert "converged: yes" in out

    def test_degenerate_instance(self, files, capsys):
        assert run_cli("solve", files["basis"], files["mixed"], "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["upper_bound"] <= 1e-4
        np.testing.assert_allclose(doc["result"]["best_mu0"], [0.5, 0.5], atol=1e-9)

    def test_round_cap_exit_2(self, files, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("random", "--dim", "2", "--count", "3", "--seed", "35", "--out", str(a)) == 0
        assert run_cli("random", "--dim", "2", "--count", "4", "--seed", "36", "--out", str(b)) == 0
        assert run_cli("solve", str(a), str(b), "--rounds", "1", "--gap", "1e-9") == 2
        assert "converged: no" in capsys.readouterr().out

    @pytest.mark.parametrize("gap", ["inf", "nan", "0", "-1e-3"])
    def test_bad_target_gap_exit_1(self, files, capsys, gap):
        assert run_cli("solve", files["orth0"], files["orth1"], f"--gap={gap}", "--json") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "target_gap must be finite and positive" in captured.err

    def test_writes_measurement(self, files, capsys, tmp_path):
        out = tmp_path / "T.json"
        assert run_cli("solve", files["orth0"], files["orth1"], "--out", str(out)) == 0
        t = stateio.load_measurement(str(out))
        np.testing.assert_allclose(t.matrix, np.diag([1.0, 0.0]), atol=1e-9)

    def test_json_deterministic(self, files, capsys):
        run_cli("solve", files["basis"], files["mixed"], "--json")
        first = capsys.readouterr().out
        run_cli("solve", files["basis"], files["mixed"], "--json")
        second = capsys.readouterr().out
        assert first == second

    def test_summary_prints_the_mixtures_of_the_upper_bound(self, capsys, tmp_path):
        # The document's one mixture pair is the upper bound's certificate,
        # and the summary prints it.
        paths = []
        for k, sset in enumerate(random_instance(1, dims=(2, 3, 4), max_states=4)):
            paths.append(str(tmp_path / f"s{k}.json"))
            stateio.save_state_set(paths[-1], sset)
        assert run_cli("solve", *paths, "--gap", "1e-3", "--json") == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert "mu0" not in result and "mu1" not in result
        assert run_cli("solve", *paths, "--gap", "1e-3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"mu0: {cli._fmt_weights(result['best_mu0'])}" in lines
        assert f"mu1: {cli._fmt_weights(result['best_mu1'])}" in lines

    def test_orthogonal_supports_at_the_validators_limits(self, tmp_path, capsys):
        # Both states lie inside the validators' 1e-9 slack, and eps* =
        # 1 + 1.4e-9: no gap check may reject what validation accepted.
        s0 = tmp_path / "s0.json"
        s1 = tmp_path / "s1.json"
        for path, diag in ((s0, [1 + 0.9e-9, -0.5e-9]), (s1, [-0.5e-9, 1 + 0.9e-9])):
            stateio.save_state_set(str(path), ss.StateSet(2, (ss.DensityMatrix(np.diag(diag)),)))
        assert run_cli("validate", str(s0), str(s1)) == 0
        capsys.readouterr()
        assert run_cli("solve", str(s0), str(s1), "--gap", "1e-9", "--json") == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert 0.0 <= result["upper_bound"] - result["lower_bound"] <= 1e-9
        assert result["upper_bound"] == pytest.approx(1 + 1.4e-9, abs=1e-15)


class TestDistance:
    def test_singletons_default_uniform(self, files, capsys):
        assert run_cli("distance", files["orth0"], files["orth1"]) == 0
        assert "trace distance: 1" in capsys.readouterr().out

    def test_degenerate_uniform(self, files, capsys):
        assert run_cli("distance", files["basis"], files["mixed"], "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["result"]["distance"]) <= 1e-12

    def test_point_mass_flag(self, files, capsys):
        assert run_cli("distance", files["basis"], files["mixed"], "--mu0", "1,0", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["distance"] == pytest.approx(0.5, abs=1e-12)

    def test_bad_weights_exit_1(self, files, capsys):
        assert run_cli("distance", files["basis"], files["mixed"], "--mu0", "0.9,0.9") == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_length_exit_1(self, files, capsys):
        assert run_cli("distance", files["basis"], files["mixed"], "--mu0", "1") == 1
        assert "error:" in capsys.readouterr().err

    def test_unparsable_weights_exit_1(self, files, capsys):
        assert run_cli("distance", files["basis"], files["mixed"], "--mu0", "a,b") == 1
        assert capsys.readouterr().err == (
            "error: cannot parse weights 'a,b': could not convert string to float: 'a'\n")

    @pytest.mark.parametrize("flag, index", [("nan,1", 0), ("1,inf", 1), ("-inf,1", 0)])
    def test_non_finite_weight_named(self, files, capsys, flag, index):
        assert run_cli("distance", files["basis"], files["mixed"], f"--mu0={flag}") == 1
        err = capsys.readouterr().err
        assert f"error: weight {index} is " in err
        assert "not a finite number" in err


class TestHelstrom:
    def test_orthogonal_pair(self, files, capsys, tmp_path):
        out = tmp_path / "T.json"
        assert run_cli("helstrom", files["orth0"], files["orth1"], "--out", str(out)) == 0
        assert "achieved gap: 1" in capsys.readouterr().out
        t = stateio.load_measurement(str(out))
        np.testing.assert_allclose(t.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identical_states(self, files, capsys):
        assert run_cli("helstrom", files["mixed"], files["mixed"], "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["gap"] == 0.0

    def test_multi_state_file_rejected(self, files, capsys):
        assert run_cli("helstrom", files["basis"], files["orth1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_state_names_file_and_state(self, files, capsys, tmp_path):
        bad = str(tmp_path / "bad.json")
        stateio.save_state_set(bad, ss.StateSet(
            dim=2, states=(ss.DensityMatrix(np.diag([1.5, -0.5])),)))
        assert run_cli("helstrom", bad, files["orth1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: state 0: minimum eigenvalue -5.000e-01 below -1.0e-09\n")


class TestCertify:
    def test_half_identity_certifies(self, files, capsys, tmp_path):
        t_path = tmp_path / "T.json"
        stateio.save_measurement(str(t_path), ss.PovmElement(np.eye(2) / 2.0))
        code = run_cli("certify", files["basis"], files["mixed"], str(t_path), "--trials", "50")
        assert code == 0
        assert "certified" in capsys.readouterr().out

    def test_pipeline_solve_then_certify(self, files, capsys, tmp_path):
        t_path = tmp_path / "T.json"
        run_cli("solve", files["orth0"], files["orth1"], "--out", str(t_path), "--quiet")
        capsys.readouterr()
        code = run_cli(
            "certify", files["orth0"], files["orth1"], str(t_path),
            "--trials", "100", "--seed", "4", "--json",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["max_violation"] <= 1e-9
        assert doc["result"]["certified"] is True

    def test_measurement_at_the_validators_edge_certifies(self, tmp_path, capsys):
        # T lies 0.99e-9 outside [0, I] at both ends, which validation
        # accepts; its margin exceeds eps* = 0.9 by 1.78e-9.
        t_path = tmp_path / "T.json"
        t = ss.PovmElement(np.diag([1.0 + 0.99e-9, 0.5, -0.99e-9]))
        stateio.save_measurement(str(t_path), t)
        s0 = write_set(tmp_path / "s0.json", np.diag([0.9, 0.1, 0.0]))
        s1 = write_set(tmp_path / "s1.json", np.diag([0.0, 0.1, 0.9]))
        assert run_cli("certify", s0, s1, str(t_path), "--trials", "100", "--json") == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert 1e-9 < result["max_violation"] <= cli.CERT_TOL
        assert result["certified"] is True

    @pytest.mark.parametrize("violation,certified", [
        (cli.CERT_TOL, True),
        (np.nextafter(cli.CERT_TOL, np.inf), False),
    ])
    def test_violation_beyond_tolerance_exits_1(self, files, capsys, tmp_path, monkeypatch,
                                                violation, certified):
        t_path = tmp_path / "T.json"
        stateio.save_measurement(str(t_path), ss.PovmElement(np.eye(2) / 2.0))
        report = ss.saddle.CertReport(margin=0.0, max_violation=float(violation),
                                      worst_mu0=np.array([0.5, 0.5]), worst_mu1=np.array([1.0]),
                                      min_distance=0.0, trials=1)
        monkeypatch.setattr(cli, "certify_forward", lambda *args, **kwargs: report)
        argv = ["certify", files["basis"], files["mixed"], str(t_path)]
        assert run_cli(*argv) == (0 if certified else 1)
        out = capsys.readouterr().out
        assert ("VIOLATED" in out) is not certified and ("(certified)" in out) is certified
        assert run_cli(*argv, "--json") == (0 if certified else 1)
        assert json.loads(capsys.readouterr().out)["result"]["certified"] is certified

    def test_invalid_measurement_rejected_before_sampling(self, files, capsys, tmp_path):
        t_path = tmp_path / "T.json"
        doc = {"dim": 2, "matrix": [[{"re": 1.2, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                                    [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]]}
        t_path.write_text(stateio.dumps(doc), encoding="utf-8")
        assert run_cli("certify", files["basis"], files["mixed"], str(t_path)) == 1
        assert capsys.readouterr().err == (
            f"error: {t_path}: eigenvalue 1.2 outside [-1.0e-09, 1.000000001]\n")

    @pytest.mark.parametrize("trials", ["1000", "0"])
    def test_measurement_of_wrong_dimension_exit_1(self, files, capsys, tmp_path, trials):
        # Checked before the trial count and the sets' dimensions.
        t_path = tmp_path / "T.json"
        stateio.save_measurement(str(t_path), ss.PovmElement(np.eye(3) / 2.0))
        code = run_cli("certify", files["basis"], files["mixed"], str(t_path), "--trials", trials)
        assert code == 1
        assert capsys.readouterr() == ("", "error: measurement dim 3 != state dim 2\n")

    def test_malformed_measurement_names_file_once(self, files, capsys):
        # A state-set file has no "matrix"; the parse error names the file.
        assert run_cli("certify", files["basis"], files["mixed"], files["mixed"]) == 1
        assert capsys.readouterr().err == (
            f"error: {files['mixed']}: matrix: matrix must be a list of rows\n")


class TestRandom:
    def test_reproducible_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("random", "--dim", "2", "--count", "3", "--seed", "7", "--out", str(a))
        run_cli("random", "--dim", "2", "--count", "3", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_output_validates(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("random", "--dim", "3", "--count", "2", "--seed", "1", "--out", str(a))
        run_cli("random", "--dim", "3", "--count", "2", "--seed", "2", "--out", str(b))
        capsys.readouterr()
        assert run_cli("validate", str(a), str(b)) == 0

    def test_rank_one_states_are_pure(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        run_cli("random", "--dim", "3", "--count", "2", "--rank", "1", "--seed", "5",
                "--out", str(a))
        sset = stateio.load_state_set(str(a))
        for rho in sset.states:
            lam = ss.hermitian_eig(rho.matrix).eigenvalues
            assert lam[-1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_rank_exit_1(self, tmp_path, capsys):
        code = run_cli("random", "--dim", "2", "--count", "1", "--rank", "5", "--seed", "0",
                       "--out", str(tmp_path / "x.json"))
        assert code == 1


class TestJsonAndQuiet:
    def test_quiet_suppresses_summary(self, files, capsys):
        assert run_cli("distance", files["orth0"], files["orth1"], "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_json_is_single_document(self, files, capsys):
        run_cli("helstrom", files["orth0"], files["orth1"], "--json")
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "helstrom"
        assert doc["result"]["measurement"]["dim"] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "statesep.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "validate" in proc.stdout and "solve" in proc.stdout


@pytest.mark.parametrize("argv,argument", [
    (["solve", "a.json", "b.json", "--rounds", "1e3"], "argument --rounds"),
    (["certify", "a.json", "b.json", "T.json", "--trials", "x"], "argument --trials"),
    (["solve", "a.json"], "set1"),
    (["bogus"], "argument command"),
])
def test_usage_error_exits_1(argv, argument, capsys):
    # argparse's own code, 2, is solve's "iteration cap hit first".
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ") and argument in err[-1]
    assert sum(line.startswith("error: ") for line in err) == 1
    proc = subprocess.run([sys.executable, "-m", "statesep.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == err[-1]


def test_parser_reused_across_runs_matches_fresh_processes(files, capsys, tmp_path):
    # run() builds its parser once per process; a bad argv in between must
    # leave nothing behind that changes a later run.
    witness = str(tmp_path / "T.json")
    stateio.save_measurement(witness, ss.PovmElement(np.eye(2) / 2.0))
    certify = ["certify", files["basis"], files["mixed"], witness, "--json",
               "--trials", "40", "--seed", "3"]
    solve = ["solve", files["orth0"], files["orth1"], "--json",
             "--out", str(tmp_path / "W.json")]
    in_process = []
    for argv in (certify, solve, ["solve", files["orth0"], "--rounds", "x"], certify):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    assert in_process[2][0] == 1
    assert in_process[0] == in_process[3]
    for argv, (code, out) in zip((certify, solve), in_process):
        proc = subprocess.run([sys.executable, "-m", "statesep.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize("bad_value,message", [
    (True, "entry field 're' is not a number"),
    (float("nan"), "entry field 're' is not a finite number"),
])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_malformed_file_error_survives_python_optimize(files, command, bad_value, message):
    # The array pass that parses a file must reject it by checks that
    # raise, not by assert statements that -O strips out.
    doc = json.loads((files["tmp"] / "basis.json").read_text(encoding="utf-8"))
    doc["states"][1]["matrix"][1][0]["re"] = bad_value
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(ss.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = [command, str(bad), files["mixed"]]
    expected = f"error: {bad}: state 1[1][0]: {message}\n"
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "statesep.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected), flags
