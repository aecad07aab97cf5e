import json

import numpy as np
import pytest

import statesep as ss
from statesep import stateio
from statesep.errors import MultiStateFileError, ParseError, SpectrumOutOfRangeError

from conftest import KET0, KET1, MIXED2, measurement_document, set_document, state_set


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def entry(re, im=0.0):
    return {"re": re, "im": im}


GOOD = {
    "dim": 2,
    "states": [
        {"label": "up", "matrix": [[entry(1.0), entry(0.0)], [entry(0.0), entry(0.0)]]},
        {"matrix": [[entry(0.5), entry(0.0)], [entry(0.0), entry(0.5)]]},
    ],
}


class TestParsing:
    def test_good_file(self, tmp_path):
        p = tmp_path / "s.json"
        write(p, GOOD)
        sset = stateio.load_state_set(str(p))
        assert sset.dim == 2 and len(sset) == 2
        assert sset.labels[0] == "up"
        np.testing.assert_array_equal(sset.states[0].matrix, KET0)

    def test_ragged_row_rejected(self, tmp_path):
        doc = {"dim": 2, "states": [{"matrix": [[entry(1.0), entry(0.0)], [entry(0.0)]]}]}
        p = tmp_path / "s.json"
        write(p, doc)
        with pytest.raises(ParseError, match="row 1"):
            stateio.load_state_set(str(p))

    def test_row_count_mismatch_rejected(self, tmp_path):
        doc = {"dim": 3, "states": [{"matrix": [[entry(1.0)] * 3] * 2}]}
        p = tmp_path / "s.json"
        write(p, doc)
        with pytest.raises(ParseError, match="rows"):
            stateio.load_state_set(str(p))

    def test_missing_im_rejected(self, tmp_path):
        doc = {"dim": 1, "states": [{"matrix": [[{"re": 1.0}]]}]}
        p = tmp_path / "s.json"
        write(p, doc)
        with pytest.raises(ParseError, match="im"):
            stateio.load_state_set(str(p))

    def test_non_numeric_rejected(self, tmp_path):
        doc = {"dim": 1, "states": [{"matrix": [[{"re": "x", "im": 0.0}]]}]}
        p = tmp_path / "s.json"
        write(p, doc)
        with pytest.raises(ParseError, match="number"):
            stateio.load_state_set(str(p))

    @pytest.mark.parametrize("bad,message", [
        (True, "matrix entry must be an object with re/im"),
        ({"re": True, "im": 0.0}, "entry field 're' is not a number"),
        ({"re": 0.0, "im": 10**400}, "entry field 'im' is not a finite number"),
    ])
    def test_bad_entry_in_last_of_256_states_keeps_its_message(self, tmp_path, bad, message):
        # The array pass rejects the whole file; the per-entry parse then
        # words the error, naming the state and the entry.
        sset = ss.StateSet(dim=4, states=tuple(ss.random_density(4, 4, s) for s in range(256)))
        p = tmp_path / "s.json"
        stateio.save_state_set(str(p), sset)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["states"][255]["matrix"][2][3] = bad
        write(p, doc)
        with pytest.raises(ParseError) as info:
            stateio.load_state_set(str(p))
        assert str(info.value) == f"{p}: state 255[2][3]: {message}"

    def test_first_error_in_file_order_wins(self, tmp_path):
        matrix = [[entry(1.0), entry(0.0)], [entry(0.0), entry(0.0)]]
        states = [{"matrix": matrix} for _ in range(4)]
        states[1] = {"matrix": [[entry(1.0), entry(0.0)], [entry(0.0), entry(float("nan"))]]}
        states[3] = {"label": 7, "matrix": matrix}
        p = tmp_path / "s.json"
        write(p, {"dim": 2, "states": states})
        with pytest.raises(ParseError) as info:
            stateio.load_state_set(str(p))
        assert str(info.value) == f"{p}: state 1[1][1]: entry field 're' is not a finite number"

    @pytest.mark.parametrize("bad,message", [
        ({"label": 7, "matrix": [[entry(1.0), entry(0.0)], [entry(0.0), entry(0.0)]]},
         "label must be a string"),
        ([[entry(1.0), entry(0.0)], [entry(0.0), entry(0.0)]], "must be an object"),
    ])
    def test_bad_state_object_with_valid_matrices_rejected(self, tmp_path, bad, message):
        # Every matrix passes the array pass; the state itself is wrong.
        states = [{"matrix": [[entry(1.0), entry(0.0)], [entry(0.0), entry(0.0)]]}] * 12
        states[5] = bad
        p = tmp_path / "s.json"
        write(p, {"dim": 2, "states": states})
        with pytest.raises(ParseError) as info:
            stateio.load_state_set(str(p))
        assert str(info.value) == f"{p}: state 5 {message}"

    @pytest.mark.parametrize("bad,message", [
        (True, "matrix entry must be an object with re/im"),
        ({"re": 10**400, "im": 0.0}, "entry field 're' is not a finite number"),
    ])
    def test_bad_measurement_entry_keeps_its_message(self, tmp_path, bad, message):
        matrix = [[entry(0.5), entry(0.0)], [entry(0.0), entry(0.5)]]
        matrix[0][1] = bad
        p = tmp_path / "t.json"
        write(p, {"dim": 2, "matrix": matrix})
        with pytest.raises(ParseError) as info:
            stateio.load_measurement(str(p))
        assert str(info.value) == f"{p}: matrix[0][1]: {message}"

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"dim": 2,', encoding="utf-8")
        with pytest.raises(ParseError, match="line"):
            stateio.load_state_set(str(p))

    def test_deep_nesting_is_parse_error(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"dim": 1, "states": ' + "[" * 100_000, encoding="utf-8")
        with pytest.raises(ParseError, match="nested too deeply"):
            stateio.load_state_set(str(p))

    @pytest.mark.parametrize("load", [stateio.load_state_set, stateio.load_measurement])
    def test_over_long_integer_is_parse_error(self, tmp_path, load):
        # Past Python's 4,300-digit limit on converting integer strings.
        p = tmp_path / "s.json"
        p.write_text('{"dim": 1, "matrix": [[{"re": ' + "1" * 5001 + ', "im": 0}]]}',
                     encoding="utf-8")
        with pytest.raises(ParseError, match="integer literal too long") as info:
            load(str(p))
        assert str(info.value).startswith(f"{p}: ")

    def test_non_utf8_names_path(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_bytes(b'{"dim": 1, "states": [\xff]}')
        with pytest.raises(ParseError, match="not UTF-8") as info:
            stateio.load_measurement(str(p))
        assert str(p) in str(info.value)

    def test_bad_dim_rejected(self, tmp_path):
        p = tmp_path / "s.json"
        write(p, {"dim": 0, "states": []})
        with pytest.raises(ParseError, match="dim"):
            stateio.load_state_set(str(p))

    @pytest.mark.parametrize("load", [stateio.load_state_set, stateio.load_measurement])
    def test_top_level_array_rejected(self, tmp_path, load):
        p = tmp_path / "s.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load(str(p))
        assert str(info.value) == f"{p}: top level must be an object"

    def test_invalid_state_names_index(self, tmp_path):
        doc = {
            "dim": 2,
            "states": [
                {"matrix": [[entry(0.5), entry(0.0)], [entry(0.0), entry(0.5)]]},
                {"matrix": [[entry(0.9), entry(0.0)], [entry(0.0), entry(0.0)]]},
            ],
        }
        p = tmp_path / "s.json"
        write(p, doc)
        with pytest.raises(ss.StatesepError, match="state 1"):
            stateio.load_state_set(str(p))

    def test_foreign_error_passes_through_unwrapped(self, tmp_path, monkeypatch):
        # A set large enough to be screened, where only the state sitting
        # on the eigenvalue floor, which the screen leaves alone, reaches
        # validate_density.
        matrices = [ss.random_density(2, 2, seed).matrix for seed in range(11)]
        matrices[4] = np.diag([1.0 - ss.states.EIG_FLOOR, ss.states.EIG_FLOOR])
        p = tmp_path / "s.json"
        stateio.save_state_set(str(p), ss.StateSet.from_matrices(matrices))
        boom = RuntimeError("boom")
        seen = []

        def fail(matrix):
            seen.append(matrix)
            raise boom

        monkeypatch.setattr(ss.states, "validate_density", fail)
        with pytest.raises(RuntimeError) as info:
            stateio.load_state_set(str(p))
        assert info.value is boom
        assert len(seen) == 1 and seen[0].tobytes() == matrices[4].astype(complex).tobytes()

    @pytest.mark.parametrize("count,runs", [(256, 0), (3, 0)])
    def test_eigendecompositions_spent(self, tmp_path, kernel_calls, count, runs):
        # A set of any size is screened by one Cholesky certificate, which
        # runs no _householder_ql.
        self.assert_loads_with(tmp_path, kernel_calls, 4, count, runs)

    def test_deep_set_spends_no_eigendecomposition(self, tmp_path, kernel_calls):
        self.assert_loads_with(tmp_path, kernel_calls, 16, 3, 0)

    @staticmethod
    def assert_loads_with(tmp_path, kernel_calls, dim, count, runs):
        sset = ss.StateSet(dim=dim, states=tuple(
            ss.random_density(dim, 1 + seed % dim, seed) for seed in range(count)))
        p = tmp_path / "s.json"
        stateio.save_state_set(str(p), sset)
        kernel_calls.clear()
        back = stateio.load_state_set(str(p))
        assert len(kernel_calls) == runs
        assert back.stack().tobytes() == sset.stack().tobytes()

    def test_single_state_file(self, tmp_path):
        p = tmp_path / "s.json"
        write(p, GOOD)
        with pytest.raises(MultiStateFileError):
            stateio.load_single_state(str(p))

    def test_measurement_file(self, tmp_path):
        p = tmp_path / "t.json"
        write(p, {"dim": 2, "matrix": [[entry(1.0), entry(0.0)], [entry(0.0), entry(0.0)]]})
        t = stateio.load_measurement(str(p))
        np.testing.assert_array_equal(t.matrix, KET0)

    @pytest.mark.parametrize("dim", [2, 16])
    def test_measurement_screened(self, tmp_path, kernel_calls, dim):
        # A valid T is proved inside [0, I] by the certificate: no spectrum.
        rho = ss.random_density(dim, dim, 3).matrix
        t = ss.PovmElement(rho / np.abs(rho).max() / dim)
        p = tmp_path / "t.json"
        stateio.save_measurement(str(p), t)
        kernel_calls.clear()
        assert stateio.load_measurement(str(p)).matrix.tobytes() == t.matrix.tobytes()
        assert len(kernel_calls) == 0

    def test_single_state_error_names_path_and_state(self, tmp_path):
        p = tmp_path / "s.json"
        write(p, {"dim": 1, "states": [{"matrix": [[entry(2.0)]]}]})
        with pytest.raises(ss.StatesepError) as info:
            stateio.load_single_state(str(p))
        assert str(info.value).startswith(f"{p}: state 0: trace 2+0.000e+00j deviates")

    def test_measurement_validated(self, tmp_path):
        p = tmp_path / "t.json"
        write(p, {"dim": 2, "matrix": [[entry(1.2), entry(0.0)], [entry(0.0), entry(0.0)]]})
        with pytest.raises(SpectrumOutOfRangeError, match=f"^{p}: eigenvalue 1.2 outside"):
            stateio.load_measurement(str(p))


class TestLiteralLayout:
    """The documents' bytes, written out by hand: a check of the layout that
    takes nothing from the code that writes it."""

    def test_measurement_file(self, tmp_path):
        m = np.array([[0.5, 0.25 - 0.5j], [0.25 + 0.5j, -0.0]], dtype=complex)
        p = tmp_path / "t.json"
        stateio.save_measurement(str(p), ss.PovmElement(m))
        assert p.read_bytes() == (
            b'{\n'
            b'  "dim": 2,\n'
            b'  "matrix": [\n'
            b'    [{"re": 0.5, "im": 0.0}, {"re": 0.25, "im": -0.5}],\n'
            b'    [{"re": 0.25, "im": 0.5}, {"re": -0.0, "im": 0.0}]\n'
            b'  ]\n'
            b'}\n'
        )

    def test_state_set_file(self, tmp_path):
        p = tmp_path / "s.json"
        stateio.save_state_set(str(p), state_set(KET0, MIXED2))
        assert p.read_bytes() == (
            b'{\n'
            b'  "dim": 2,\n'
            b'  "states": [\n'
            b'    {\n'
            b'      "matrix": [\n'
            b'        [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],\n'
            b'        [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]\n'
            b'      ]\n'
            b'    },\n'
            b'    {\n'
            b'      "matrix": [\n'
            b'        [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.0}],\n'
            b'        [{"re": 0.0, "im": 0.0}, {"re": 0.5, "im": 0.0}]\n'
            b'      ]\n'
            b'    }\n'
            b'  ]\n'
            b'}\n'
        )

    def test_labelled_state_set_file(self, tmp_path):
        one = ss.DensityMatrix(np.ones((1, 1)))
        p = tmp_path / "s.json"
        stateio.save_state_set(str(p), ss.StateSet(dim=1, states=(one, one),
                                                   labels=('q"\\é', "")))
        assert p.read_bytes() == (
            b'{\n'
            b'  "dim": 1,\n'
            b'  "states": [\n'
            b'    {\n'
            b'      "label": "q\\"\\\\\\u00e9",\n'
            b'      "matrix": [\n'
            b'        [{"re": 1.0, "im": 0.0}]\n'
            b'      ]\n'
            b'    },\n'
            b'    {\n'
            b'      "label": "",\n'
            b'      "matrix": [\n'
            b'        [{"re": 1.0, "im": 0.0}]\n'
            b'      ]\n'
            b'    }\n'
            b'  ]\n'
            b'}\n'
        )

    def test_solve_shaped_document(self):
        doc = {
            "lower_bound": 1 / 3,
            "mu0": np.array([1 / 3, 2 / 3]),
            "trace": [{"round": 1, "lower_bound": 5e-324, "upper_bound": 1.0, "gap": 1.0},
                      {"round": 2, "lower_bound": 0.5, "upper_bound": 0.5, "gap": 0.0}],
            "measurement": {"dim": 2, "matrix": np.eye(2, dtype=complex) / 2.0},
        }
        assert stateio.dumps(doc) == (
            '{\n'
            '  "lower_bound": 0.33333333333333331,\n'
            '  "mu0": [0.33333333333333331, 0.66666666666666663],\n'
            '  "trace": [{"round": 1, "lower_bound": 4.9406564584124654e-324, '
            '"upper_bound": 1.0, "gap": 1.0}, '
            '{"round": 2, "lower_bound": 0.5, "upper_bound": 0.5, "gap": 0.0}],\n'
            '  "measurement": {\n'
            '    "dim": 2,\n'
            '    "matrix": [\n'
            '      [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.0}],\n'
            '      [{"re": 0.0, "im": 0.0}, {"re": 0.5, "im": 0.0}]\n'
            '    ]\n'
            '  }\n'
            '}'
        )

    @pytest.mark.parametrize("array", [
        np.array([1, 2]), np.array([0.5], dtype=np.float32), np.eye(2), np.ones(2, dtype=complex),
        np.ones((1, 2, 2), dtype=complex),
    ], ids=["int", "float32", "2-D float", "1-D complex", "3-D complex"])
    def test_dumps_rejects_other_arrays(self, array):
        with pytest.raises(TypeError, match="cannot serialize"):
            stateio.dumps({"a": array})

    @pytest.mark.parametrize("shape", [(0, 0), (0, 2), (2, 0), (1, 3), (3, 1), (3, 3)])
    def test_arrays_render_as_their_lists(self, shape):
        m = (np.arange(np.prod(shape)) * (0.5 - 0.25j)).reshape(shape)
        for matrix in (m, m.T):  # m.T is not C-contiguous
            assert stateio.dumps({"m": matrix}) == stateio.dumps(
                {"m": stateio.matrix_to_jsonable(matrix)})
        for weights in (m.real.ravel(), m.real.T.ravel()[::-1]):
            assert stateio.dumps({"w": weights}) == stateio.dumps({"w": weights.tolist()})


class TestRoundTrip:
    def test_state_set_bits_survive(self, tmp_path):
        rng_states = [ss.random_density(3, 3, seed) for seed in (5, 6, 7)]
        sset = ss.StateSet(dim=3, states=tuple(rng_states))
        p = tmp_path / "s.json"
        stateio.save_state_set(str(p), sset)
        back = stateio.load_state_set(str(p))
        for a, b in zip(sset.states, back.states):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_file_bytes_stable(self, tmp_path):
        sset = state_set(KET0, KET1, MIXED2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        stateio.save_state_set(str(p1), sset)
        stateio.save_state_set(str(p2), stateio.load_state_set(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_measurement_round_trip(self, tmp_path):
        t = ss.validate_povm_element(np.array([[0.3, 0.1j], [-0.1j, 0.6]]))
        p = tmp_path / "t.json"
        stateio.save_measurement(str(p), t)
        back = stateio.load_measurement(str(p))
        assert t.matrix.tobytes() == back.matrix.tobytes()

    def test_seventeen_digit_floats(self):
        for x in (1 / 3, 0.1, -2.5e-17, 123456.789, 5e-324):
            assert float(stateio.format_float(x)) == x

    def test_dumps_is_valid_json(self):
        doc = {"a": [1, 2.5, "x"], "b": {"re": 1 / 3, "im": -0.25}, "c": True, "d": None}
        parsed = json.loads(stateio.dumps(doc))
        assert parsed["b"]["re"] == 1 / 3
        assert parsed["c"] is True and parsed["d"] is None

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_writers_reject_non_finite_as_dumps_does(self, tmp_path, value):
        m = np.eye(2, dtype=complex) / 2.0
        m[1, 0] = complex(0.5, value)
        sset = ss.StateSet(dim=2, states=(ss.DensityMatrix(m),))
        for save, obj, jsonable in (
            (stateio.save_state_set, sset, set_document),
            (stateio.save_measurement, ss.PovmElement(m), measurement_document),
        ):
            with pytest.raises(ValueError) as expected:
                stateio.dumps(jsonable(obj))
            with pytest.raises(ValueError) as info:
                save(str(tmp_path / "out.json"), obj)
            assert str(info.value) == str(expected.value)
            assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), np.inf])
    def test_dumps_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="not finite"):
            stateio.dumps({"gap": value})
