"""Properties of the package source itself."""

import ast
import json
import re
import shlex
from collections import Counter
from pathlib import Path

import lambda_forge
from lambda_forge import cli

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
    """Quadratic ideals are built in closed form; the general echelon is
    for the lattices of the other layers."""
    found = []
    for node, _ in _imports(SRC / "quadfield.py"):
        if any(alias.name == "hnf_rows" for alias in node.names):
            found.append(f"quadfield.py:{node.lineno}")
    assert not found, found


def test_no_function_local_package_imports():
    """Every module imports at the top, the standard library included: no
    package module forms a cycle that a function-local import would have
    to break, and a module's dependencies can be read off its head."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


def test_no_module_level_mutable_containers():
    """Process-global state lives in ``lru_cache``s, which can be counted
    and cleared: no module holds a dict, list or set besides ``__all__``."""
    literals = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or ast.unparse(node).startswith("__all__ ="):
                continue
            value = node.value
            called = isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id
            if isinstance(value, literals) or called in ("dict", "list", "set"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _used_names(tree) -> set[str]:
    """The names a tree uses: each Name and attribute in its code, and each
    ``name`` cross-reference in its strings (docstrings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"``(\w+)``", node.value))
    return names


def _readme_api_table() -> set[str]:
    """The `module.name` rows of README's table of library API without an
    internal caller."""
    section = (ROOT / "README.md").read_text().partition("## Library API without an internal caller")[2]
    return set(re.findall(r"^\| `(\w+\.\w+)` \|", section.partition("\n## ")[0], re.M))


def test_every_public_name_is_reached():
    """Every public top-level function or class in src/ is used in src/
    outside its own definition (the CLI included; in code, or as a
    ``name`` cross-reference in a docstring), is used by the acceptance
    criteria, or is in README's table of library API, with the statement of
    the paper it checks and the test that pins it: a new dead entry point
    fails here.  Uses are matched by name, not resolved."""
    statements = [(path.stem, node) for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    used = {id(node): _used_names(node) for _, node in statements}
    uses = Counter(name for names in used.values() for name in names)
    acceptance = _used_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    documented = _readme_api_table()
    public = [
        (module, node)
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unreached = [
        f"{module}.{node.name}"
        for module, node in public
        if uses[node.name] == (node.name in used[id(node)])  # only its own definition uses it
        and node.name not in acceptance
        and f"{module}.{node.name}" not in documented
    ]
    assert not unreached, unreached
    assert documented <= {f"{module}.{node.name}" for module, node in public}, "README lists a name src/ does not define"


def test_readme_cli_examples_parse():
    """Each ``lambda-forge`` line of README's CLI example block is accepted
    by the parser and the mode rule; no handler runs."""
    section = (ROOT / "README.md").read_text().partition("\n## CLI\n")[2].partition("\n## ")[0]
    lines = [line for line in section.partition("```sh\n")[2].partition("```")[0].splitlines() if line.startswith("lambda-forge ")]
    assert lines
    for line in lines:
        args = cli._parse(shlex.split(line, comments=True)[1:])
        assert args is not None, line
        cli._check_mode(args)


def test_bench_records_load():
    """Every benchmark record at the repo root is one JSON document."""
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        with path.open() as fh:
            assert isinstance(json.load(fh), dict), path.name
