"""State-set and measurement files.

State-set schema (UTF-8 JSON, matrices row-major, dim rows of dim entries):

    { "dim": 2,
      "states": [ { "label": "plus",
                    "matrix": [[{"re": 0.5, "im": 0}, {"re": 0.5, "im": 0}],
                               [{"re": 0.5, "im": 0}, {"re": 0.5, "im": 0}]] } ] }

A measurement file carries a single "matrix" instead of "states".  Floats
are written as decimal with 17 significant digits, so every file written
here re-parses to bit-identical matrices.

dumps is the one renderer, and it renders numpy arrays itself: a weight
vector as one inline list, a matrix as rows of {re, im} objects.  So a
document goes to dumps with its arrays as they are; save_state_set writes
dumps of {"dim", "states"} and save_measurement dumps of {"dim", "matrix"}.

Reading parses every matrix of a file in one array pass: check each
matrix's shape, gather every entry's re and im into one list, check their
types on the whole list, convert it with one np.array call and check
finiteness once, then view the result as an (n, d, d) complex stack.  If
any check fails, the whole file is parsed again by the per-entry loop
(parse_matrix), the only code that words a parse error, so the first
error, its state index and its message are those of that loop alone.

This module parses and writes files and checks no physics.  The parsed
states are validated by states.screened, the one screened pass every
state set takes: load_state_set and load_single_state build their set
with StateSet.from_matrices, which raises the first invalid state's
error, and load_state_verdicts (`statesep validate`) returns every
state's.  A measurement is validated by validate_povm_element, which
screens it too.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import MultiStateFileError, ParseError, StatesepError
# validate_density is not called here; it stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps
# statesep.stateio.validate_density.
from .states import (
    DensityMatrix,
    PovmElement,
    StateSet,
    screened,
    validate_density,
    validate_povm_element,
)


# --- writing ---

# An array is a nested value, as a dict or a list is: dumps lays it out.
_NESTED = (dict, list, np.ndarray)


def _is_leaf_dict(obj) -> bool:
    return isinstance(obj, dict) and all(not isinstance(v, _NESTED) for v in obj.values())


def _is_inline_list(obj) -> bool:
    # A one-line list: every item a scalar or a flat object, as in lists of
    # trace checkpoints and the rows of parsed documents.
    return isinstance(obj, (list, tuple)) and all(
        _is_leaf_dict(v) or not isinstance(v, _NESTED) for v in obj
    )


def dumps(obj: Any) -> str:
    """Serialize to JSON with deterministic float formatting.

    Dicts keep insertion order; dicts of scalars render on one line so a
    matrix row stays on one line.  A 1-D float64 array renders as one
    inline list of floats, a 2-D complex128 array as a matrix, one row of
    {"re", "im"} objects per line, two spaces in from its key.  Any other
    array raises TypeError, as any other type does.

    The document is laid out once, as text with "%s" for each float (and
    every other "%" doubled), and one _float_texts call formats the floats,
    collected in document order, for one "%" fill.  So the first
    non-finite float raises ValueError, but only after the whole layout:
    an unserializable value anywhere raises TypeError first.  No document
    the program builds holds both.
    """
    floats: list = []
    text = _layout(obj, 0, floats)
    return text % tuple(_float_texts(floats))


def _layout(obj: Any, indent: int, floats: list) -> str:
    """dumps' text of obj with "%s" in place of each float, appended in order to floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            floats += obj.tolist()
            return "[" + ", ".join(["%s"] * len(obj)) + "]"
        if obj.ndim == 2 and obj.dtype == np.complex128:
            if not len(obj):
                return "[]"
            floats += obj.ravel().view(np.float64).tolist()
            row = inner + "[" + ", ".join(['{"re": %s, "im": %s}'] * obj.shape[1]) + "]"
            return "[\n" + ",\n".join([row] * len(obj)) + f"\n{pad}]"
        raise TypeError(f"cannot serialize a {obj.ndim}-D {obj.dtype} array")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if _is_leaf_dict(obj):
            return "{" + ", ".join([f"{_quoted(k)}: {_layout(v, 0, floats)}"
                                    for k, v in obj.items()]) + "}"
        lines = [f"{inner}{_quoted(k)}: {_layout(v, indent + 2, floats)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _is_inline_list(obj):
            return "[" + ", ".join([_layout(v, 0, floats) for v in obj]) + "]"
        lines = [f"{inner}{_layout(v, indent + 2, floats)}" for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        floats.append(obj)
        return "%s"
    if isinstance(obj, str):
        return _quoted(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _quoted(s) -> str:
    """json.dumps of a key or string, its "%" doubled for dumps' one fill."""
    return json.dumps(s).replace("%", "%%")


def _float_texts(values: list) -> list[str]:
    """Each value as "%.17g", which parses back to the identical bits, and
    ".0" where that shows no "." or exponent, so that JSON readers produce
    a float (plain "-0" would come back as integer zero and lose the sign
    bit).

    JSON has no infinities or NaN: the first non-finite value raises
    ValueError.
    """
    if not all(map(math.isfinite, values)):
        x = next(float(v) for v in values if not math.isfinite(v))
        raise ValueError(f"{x!r} is not finite and has no JSON form")
    texts = ["%.17g" % v for v in values]
    return [s if "." in s or "e" in s else s + ".0" for s in texts]


def matrix_to_jsonable(matrix: np.ndarray) -> list:
    return [
        [{"re": float(z.real), "im": float(z.imag)} for z in row]
        for row in np.asarray(matrix, dtype=np.complex128)
    ]


def _write(path: str, doc: dict) -> None:
    # Rendered before the file is opened: an error leaves no file behind.
    text = dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_state_set(path: str, sset: StateSet) -> None:
    """Write dumps({"dim", "states": [{"label", "matrix"}, ...]}) and a newline.

    A state has "label" only when the set has labels, and "matrix" is the
    state's array.  A non-finite entry raises dumps' ValueError and leaves
    no file behind.
    """
    matrices = sset.stack()
    if sset.labels is None:
        states = [{"matrix": m} for m in matrices]
    else:
        states = [{"label": label, "matrix": m} for label, m in zip(sset.labels, matrices)]
    _write(path, {"dim": sset.dim, "states": states})


def save_measurement(path: str, t: PovmElement) -> None:
    """Write dumps({"dim": t.dim, "matrix": t.matrix}) and a newline, or no file on an error."""
    _write(path, {"dim": t.dim, "matrix": t.matrix})


# --- reading ---

def _parse_entry(obj, where: str) -> complex:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: matrix entry must be an object with re/im")
    parts = []
    for key in ("re", "im"):
        if key not in obj:
            raise ParseError(f"{where}: entry missing {key!r}")
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
            raise ParseError(f"{where}: entry field {key!r} is not a number")
        # json.loads accepts NaN and Infinity, and integers up to Python's
        # limit on digits (longer ones fail in _load_json).
        try:
            value = float(obj[key])
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ParseError(f"{where}: entry field {key!r} is not a finite number")
        parts.append(value)
    return complex(*parts)


def parse_matrix(obj, dim: int, where: str) -> np.ndarray:
    """Row-major [[{re, im}, ...], ...]; ragged rows and size mismatches rejected."""
    if not isinstance(obj, list):
        raise ParseError(f"{where}: matrix must be a list of rows")
    if len(obj) != dim:
        raise ParseError(f"{where}: expected {dim} rows, found {len(obj)}")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{where}: row {i} is not a list")
        if len(row) != dim:
            raise ParseError(f"{where}: row {i} has {len(row)} entries, expected {dim}")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, f"{where}[{i}][{j}]")
    return out


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:
        # Python refuses to convert an integer literal of more than
        # sys.get_int_max_str_digits() digits (4,300 by default).
        raise ParseError(f"{path}: integer literal too long to parse: {exc}") from exc


def _parse_dim(doc, path: str) -> int:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{path}: 'dim' must be a positive integer")
    return dim


def _stack_matrices(matrices: list, dim: int) -> np.ndarray | None:
    """The matrices as one (n, dim, dim) complex128 stack, in one array pass.

    None whenever a check fails: a matrix that is not dim lists of dim
    entries, an entry that is not an object with "re" and "im", a field
    that is not an int or a float (bool, str and None are neither), an
    integer too large for a float, or a NaN or infinity.  Each value is
    converted as float() converts it, so the stack is bit for bit the one
    parse_matrix builds.  None leaves the matrices to parse_matrix, which
    alone words an error.
    """
    for m in matrices:
        if type(m) is not list or len(m) != dim:
            return None
        for row in m:
            if type(row) is not list or len(row) != dim:
                return None
    try:
        vals = [e[key] for m in matrices for row in m for e in row for key in ("re", "im")]
    except (TypeError, KeyError):
        return None
    if not set(map(type, vals)) <= {float, int}:
        return None
    try:
        parts = np.array(vals, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.view(np.complex128).reshape(len(matrices), dim, dim)


def _read_states(path: str) -> tuple[int, list[str | None], np.ndarray]:
    """(dim, labels, (n, dim, dim) stack) of a state-set file; no physics validation.

    Every matrix is parsed in one _stack_matrices pass.  If any check of
    that pass, or of a state's object and label, fails, the whole file goes
    through the per-state, per-entry loop instead, whose first error is
    raised: the same error, state index and message as that loop alone.
    """
    doc = _load_json(path)
    dim = _parse_dim(doc, path)
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise ParseError(f"{path}: 'states' must be a non-empty list")
    if all(type(entry) is dict for entry in states):
        labels = [entry.get("label") for entry in states]
        stack = _stack_matrices([entry.get("matrix") for entry in states], dim)
        if stack is not None and all(label is None or type(label) is str for label in labels):
            return dim, labels, stack
    labels, matrices = [], []
    for k, entry in enumerate(states):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: state {k} must be an object")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"{path}: state {k} label must be a string")
        labels.append(label)
        matrices.append(parse_matrix(entry.get("matrix"), dim, f"{path}: state {k}"))
    return dim, labels, np.stack(matrices)


def _state_set(path: str, stack: np.ndarray, labels=None) -> StateSet:
    """StateSet.from_matrices(stack, labels), its error raised with the path prefixed."""
    try:
        return StateSet.from_matrices(stack, labels)
    except StatesepError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_state_verdicts(path: str) -> tuple[int, list[tuple[str | None, StatesepError | None]]]:
    """Parse a state-set file and judge every state: (dim, [(label, error), ...]).

    The file is parsed as load_state_set parses it, and a parse error is
    raised.  Each state's error is the one validate_density raises on it
    alone, unprefixed, or None for a valid state; every state is judged,
    not only up to the first invalid one.
    """
    dim, labels, stack = _read_states(path)
    verdicts = [state if isinstance(state, StatesepError) else None for state in screened(stack)]
    return dim, list(zip(labels, verdicts))


def load_state_set(path: str) -> StateSet:
    """Parse and fully validate a state-set file.

    The states are parsed in one array pass and validated by
    StateSet.from_matrices; the first invalid state's error is raised with
    the path and state index prefixed, so the set, or the error, is that
    of validating each state in turn.
    """
    _, labels, stack = _read_states(path)
    if all(label is None for label in labels):
        return _state_set(path, stack)
    return _state_set(path, stack, [label if label is not None else "" for label in labels])


def load_single_state(path: str) -> DensityMatrix:
    """Load a state-set file that must contain exactly one state.

    Validated as load_state_set validates a set; an error names the path
    and state 0.
    """
    _, _, stack = _read_states(path)
    if len(stack) != 1:
        raise MultiStateFileError(f"{path}: expected exactly one state, found {len(stack)}")
    return _state_set(path, stack).states[0]


def load_measurement(path: str) -> PovmElement:
    """Parse and validate a measurement file ({"dim": d, "matrix": [[...]]}).

    The matrix is parsed in the array pass that state sets take, or, if a
    check of that pass fails, by parse_matrix, which words the error.  It
    is then validated by validate_povm_element, whose error is raised with
    the path prefixed, so every error names the path once.
    """
    doc = _load_json(path)
    dim = _parse_dim(doc, path)
    raw = doc.get("matrix")
    stack = _stack_matrices([raw], dim)
    matrix = parse_matrix(raw, dim, f"{path}: matrix") if stack is None else stack[0]
    try:
        return validate_povm_element(matrix)
    except StatesepError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
