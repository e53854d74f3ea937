"""Line coverage of ``src/lambda_forge`` under the tier-1 suite, stdlib only.

Usage: ``python tools/linecov.py`` (no flags, no environment variables).

It runs tier-1 (``pytest -q --continue-on-collection-errors`` over the
repository's ``testpaths``) in this process under a ``sys.settrace`` hook
that records line events only in frames whose file lies in
``src/lambda_forge``.  Tracing starts before ``lambda_forge`` is imported,
so the lines that run at import count as reached.  A module's executable
lines are read off its code objects (``co_lines()``, recursively); a
function's ``def`` line counts as reached when the function is called.

Each unreached line that no entry of ``linecov_allow.txt`` covers is printed
as ``path:line: text``, and so is each entry that covers no unreached line
(it is stale); the exit status is 1 if anything is printed.  Test outcomes
are ignored: tracing slows the suite about five-fold, so the
acceptance criteria's wall-clock budgets may fail under it.  Hypothesis
runs derandomized, so that every run reaches the same lines.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambda_forge"
ALLOWLIST = Path(__file__).resolve().parent / "linecov_allow.txt"
REASONS = ("self-check", "bound", "guard", "verdict")


def load_allowlist(path=ALLOWLIST):
    """(reason, file name, snippet) for each entry: one a line, blank lines
    and ``#`` comments skipped."""
    entries = []
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            reason, name, snippet = line.split(maxsplit=2)
            entries.append((reason, name, snippet))
    return entries


def allowed_lines(source: str, snippet: str) -> range:
    """The lines an entry covers: every statement (or ``except`` clause)
    that starts on the line holding the snippet's one occurrence, else that
    line alone."""
    first = source[: source.index(snippet)].count("\n") + 1
    last = first
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.excepthandler)) and node.lineno == first:
            last = max(last, node.end_lineno)
    return range(first, last + 1)


def executable_lines(source: str, filename: str) -> set[int]:
    """Every line number that some code object compiled from the source
    carries, the module's line 0 left out."""
    lines: set[int] = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced() -> dict[str, set[int]]:
    """Run tier-1 under the line hook; the reached lines per file name."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}
    local_by_file = {}

    def local_tracer(hit):
        def trace(frame, event, arg):
            hit(frame.f_lineno)
            return trace

        return trace

    def global_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        trace = local_by_file.get(filename, False)
        if trace is False:
            path = os.path.realpath(filename)
            trace = None
            if path.startswith(prefix):
                trace = local_tracer(reached.setdefault(Path(path).name, set()).add)
            local_by_file[filename] = trace
        if trace is not None:
            trace(frame, event, arg)
        return trace

    class Derandomized:
        """Loads a derandomized Hypothesis profile once pytest has
        registered its plugins, so that hypothesis is not imported early."""

        @staticmethod
        def pytest_configure(config):
            import hypothesis

            hypothesis.settings.register_profile("linecov", derandomize=True, database=None)
            hypothesis.settings.load_profile("linecov")

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        pytest.main(["-q", "--continue-on-collection-errors"], plugins=[Derandomized()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def main() -> int:
    reached = run_traced()
    entries = load_allowlist()
    allow = {}  # (file name, line) -> the entry covering it
    for entry in entries:
        _, name, snippet = entry
        for line in allowed_lines((PACKAGE / name).read_text(), snippet):
            allow[name, line] = entry
    total = unreached = 0
    missed, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(source, str(path))
        not_reached = sorted(lines - reached.get(path.name, set()))
        total += len(lines)
        unreached += len(not_reached)
        for line in not_reached:
            entry = allow.get((path.name, line))
            if entry is None:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {source.splitlines()[line - 1].strip()}")
            used.add(entry)
    stale = [f"stale allowlist entry: {' '.join(entry)}" for entry in entries if entry not in used]
    print(f"\nlinecov: {total - unreached} of {total} executable lines reached; "
          f"{unreached} unreached, {unreached - len(missed)} of them allowlisted")
    print("\n".join(missed + stale))
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
