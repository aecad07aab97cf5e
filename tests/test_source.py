"""Rules on the package's own source."""

import ast
import warnings
from pathlib import Path

import pytest

import statesep

PACKAGE = Path(statesep.__file__).resolve().parent

# Imported and never used, because perfbench/tracing.py wraps each where its
# module looks it up.  ROADMAP item 1a retires those wrappers, and then
# these imports and this list go.
TRACER_ONLY_IMPORTS = {
    ("saddle.py", "separation_gap"),
    ("saddle.py", "trace_distance"),
    ("stateio.py", "validate_density"),
}


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


def unused_imports(source):
    """The names a module's source binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_imports_are_found():
    source = "import os.path\nimport sys\nfrom x import y as z, w\nz(sys)\n"
    assert unused_imports(source) == {"os", "w"}


def test_every_import_in_the_package_is_used():
    # __init__.py imports to re-export.  An allowlisted name that is used,
    # or no longer imported, fails too, so the list only shrinks.
    found = {
        (path.name, name)
        for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    }
    assert found == TRACER_ONLY_IMPORTS
