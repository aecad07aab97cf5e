"""State-set and measurement files.

State-set schema (UTF-8 JSON, matrices row-major, dim rows of dim entries):

    { "dim": 2,
      "states": [ { "label": "plus",
                    "matrix": [[{"re": 0.5, "im": 0}, {"re": 0.5, "im": 0}],
                               [{"re": 0.5, "im": 0}, {"re": 0.5, "im": 0}]] } ] }

A measurement file carries a single "matrix" instead of "states".  Floats
are written as decimal with 17 significant digits, so every file written
here re-parses to bit-identical matrices.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import MultiStateFileError, ParseError, StatesepError
from .states import (
    DensityMatrix,
    PovmElement,
    StateSet,
    screen_densities,
    screen_povm_element,
    validate_density,
    validate_povm_element,
)


# --- writing ---

def format_float(x: float) -> str:
    """Decimal with 17 significant digits; parses back to the identical bits.

    Integral values keep a trailing ".0" so JSON readers produce a float
    (plain "-0" would come back as integer zero and lose the sign bit).
    JSON has no infinities or NaN, so those raise ValueError.
    """
    if not math.isfinite(x):
        raise ValueError(f"{x!r} is not finite and has no JSON form")
    s = format(float(x), ".17g")
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def _is_leaf_dict(obj) -> bool:
    return isinstance(obj, dict) and all(
        not isinstance(v, (dict, list)) for v in obj.values()
    )


def _is_inline_list(obj) -> bool:
    # A matrix row: every item a scalar or a flat {re, im}-style object.
    return isinstance(obj, (list, tuple)) and all(
        _is_leaf_dict(v) or not isinstance(v, (dict, list)) for v in obj
    )


def dumps(obj: Any, indent: int = 0) -> str:
    """Serialize to JSON with deterministic float formatting.

    Dicts keep insertion order; dicts of scalars render on one line so a
    matrix row stays on one line.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if _is_leaf_dict(obj):
            parts = [f"{json.dumps(k)}: {dumps(v)}" for k, v in obj.items()]
            return "{" + ", ".join(parts) + "}"
        lines = [f"{inner}{json.dumps(k)}: {dumps(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _is_inline_list(obj):
            return "[" + ", ".join(dumps(v) for v in obj) + "]"
        lines = [f"{inner}{dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def matrix_to_jsonable(matrix: np.ndarray) -> list:
    return [
        [{"re": float(z.real), "im": float(z.imag)} for z in row]
        for row in np.asarray(matrix, dtype=np.complex128)
    ]


def state_set_to_jsonable(sset: StateSet) -> dict:
    states = []
    for k, rho in enumerate(sset.states):
        entry: dict[str, Any] = {}
        if sset.labels is not None:
            entry["label"] = sset.labels[k]
        entry["matrix"] = matrix_to_jsonable(rho.matrix)
        states.append(entry)
    return {"dim": sset.dim, "states": states}


def measurement_to_jsonable(t: PovmElement) -> dict:
    return {"dim": t.dim, "matrix": matrix_to_jsonable(t.matrix)}


def save_state_set(path: str, sset: StateSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(state_set_to_jsonable(sset)) + "\n")


def save_measurement(path: str, t: PovmElement) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(measurement_to_jsonable(t)) + "\n")


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
        # json.loads accepts NaN and Infinity, and integers of any size.
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


def _parse_dim(doc, path: str) -> int:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{path}: 'dim' must be a positive integer")
    return dim


def load_raw_states(path: str) -> tuple[int, list[tuple[str | None, np.ndarray]]]:
    """Schema-level parse of a state-set file; no physics validation.

    Returns (dim, [(label, matrix), ...]).  Shape problems raise ParseError;
    whether each matrix is a valid state is left to the caller.
    """
    doc = _load_json(path)
    dim = _parse_dim(doc, path)
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise ParseError(f"{path}: 'states' must be a non-empty list")
    out = []
    for k, entry in enumerate(states):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: state {k} must be an object")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"{path}: state {k} label must be a string")
        out.append((label, parse_matrix(entry.get("matrix"), dim, f"{path}: state {k}")))
    return dim, out


def _densities(path: str, matrices: list[np.ndarray]) -> list[DensityMatrix]:
    """The parsed matrices as states, or the first invalid one's error.

    The states that screen_densities passes are wrapped as parsed; every
    other one goes through validate_density, in file order, and the first
    error is raised with the path and state index prefixed.  States and
    error are those of validating each state in turn.
    """
    states = []
    for k, (matrix, ok) in enumerate(zip(matrices, screen_densities(matrices))):
        if ok:
            states.append(DensityMatrix(matrix))
            continue
        try:
            states.append(validate_density(matrix))
        except StatesepError as exc:
            raise type(exc)(f"{path}: state {k}: {exc}") from exc
    return states


def load_state_set(path: str) -> StateSet:
    """Parse and fully validate a state-set file.

    Every state is proved valid in one screen_densities call over the whole
    set (a shifted Cholesky certificate, no eigendecomposition), or else
    checked by validate_density, whose error names the path and the state
    index; the set, or the error, is that of validating each state in turn.
    """
    dim, raw = load_raw_states(path)
    states = _densities(path, [matrix for _, matrix in raw])
    labels = [label for label, _ in raw]
    have_labels = any(label is not None for label in labels)
    return StateSet(
        dim=dim,
        states=tuple(states),
        labels=tuple(lbl if lbl is not None else "" for lbl in labels) if have_labels else None,
    )


def load_single_state(path: str) -> DensityMatrix:
    """Load a state-set file that must contain exactly one state.

    Validated as load_state_set validates a set; an error names the path
    and state 0.
    """
    dim, raw = load_raw_states(path)
    if len(raw) != 1:
        raise MultiStateFileError(f"{path}: expected exactly one state, found {len(raw)}")
    return _densities(path, [raw[0][1]])[0]


def load_measurement(path: str) -> PovmElement:
    """Parse and validate a measurement file ({"dim": d, "matrix": [[...]]}).

    A matrix that screen_povm_element proves to lie within [0, I] by a
    rounding margin (two shifted Cholesky certificates, no
    eigendecomposition) is wrapped as parsed; any other goes through
    validate_povm_element, whose error is raised with the path prefixed.
    Every error names the path once.
    """
    doc = _load_json(path)
    dim = _parse_dim(doc, path)
    matrix = parse_matrix(doc.get("matrix"), dim, f"{path}: matrix")
    if screen_povm_element(matrix):
        return PovmElement(matrix)
    try:
        return validate_povm_element(matrix)
    except StatesepError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
