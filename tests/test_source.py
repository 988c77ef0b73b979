"""Source-level contracts of the package."""

import ast
from pathlib import Path

import rankmetric

PACKAGE_DIR = Path(rankmetric.__file__).resolve().parent


def statements(kind) -> list:
    """file:line of every `kind` node in the package's modules."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, kind)]
    return found


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check that guards a
    # result must be a real raise.
    assert statements(ast.Assert) == []


def test_no_global_statements():
    # module state rebound from inside a function outlives the call that
    # set it; the package keeps no such state.
    assert statements(ast.Global) == []
