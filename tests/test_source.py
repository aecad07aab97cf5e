"""Rules on the package's own source."""

import ast
import warnings
from pathlib import Path

import pytest

import statesep

PACKAGE = Path(statesep.__file__).resolve().parent


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so no runtime check may be one.
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_a_deprecation_warning_from_the_package_fails_the_suite():
    # pyproject.toml's filterwarnings makes the package's own
    # DeprecationWarnings errors, before a later numpy makes them errors.
    with pytest.raises(DeprecationWarning, match="retired"):
        warnings.warn_explicit("retired", DeprecationWarning, "states.py", 1,
                               module="statesep.states")
