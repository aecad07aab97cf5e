"""Rules on the package's own source."""

import ast
from pathlib import Path

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
