"""Properties of the package source itself."""

import ast
from pathlib import Path

import lambda_forge

SRC = Path(lambda_forge.__file__).parent


def test_no_bare_asserts():
    """Self-checks raise AssertionError explicitly: a bare assert vanishes
    under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
