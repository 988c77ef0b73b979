"""Source-level contracts of the package."""

import ast
from pathlib import Path

import rankmetric

PACKAGE_DIR = Path(rankmetric.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check that guards a
    # result must be a real raise.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
