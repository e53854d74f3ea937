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


def test_only_witt_imports_fractions():
    """Rationals are part of an answer only in the inverse ghost transform;
    every other module computes in the integers."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "fractions" in names and path.name != "witt.py":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
