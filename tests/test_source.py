"""Checks on the package source itself."""

import ast
from pathlib import Path

import adjointlab

PACKAGE = Path(adjointlab.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # is an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
