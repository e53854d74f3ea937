"""Properties of the package source itself."""

import ast
import json
from pathlib import Path

import lambda_forge

SRC = Path(lambda_forge.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_bare_asserts():
    """Self-checks raise AssertionError explicitly: a bare assert vanishes
    under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def _imports(path: Path):
    """(import node, imported module names) for each import in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node, [node.module or ""]


def test_only_witt_imports_fractions():
    """Rationals are part of an answer only in the inverse ghost transform;
    every other module computes in the integers."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node, names in _imports(path):
            if "fractions" in names and path.name != "witt.py":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_quadfield_does_not_import_hnf_rows():
    """Quadratic ideals fold into their 2-column Hermite form directly;
    the general echelon is for the lattices of the other layers."""
    found = []
    for node, _ in _imports(SRC / "quadfield.py"):
        if any(alias.name == "hnf_rows" for alias in node.names):
            found.append(f"quadfield.py:{node.lineno}")
    assert not found, found


def test_no_function_local_package_imports():
    """Package modules import each other at the top: none of them forms a
    cycle that a function-local ``from .`` import would have to break."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert not found, found


def test_bench_records_load():
    """Every benchmark record at the repo root is one JSON document."""
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        with path.open() as fh:
            assert isinstance(json.load(fh), dict), path.name
