"""Byte stability of the command-line front end: every invocation of the
benchmark's golden corpus (perfbench/cli_goldens.json, read only) must
give the recorded exit code and stdout, and no traceback on stderr.  The
corpus uses paths relative to the repository root, so each call runs
there."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from lambda_forge.cli import main

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "perfbench" / "cli_goldens.json") as fh:
    GOLDENS = json.load(fh)


def _check_golden(record):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(record["argv"]))
    assert code == record["exit"]
    assert out.getvalue() == record["stdout"]
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("record", GOLDENS, ids=[" ".join(r["argv"]) for r in GOLDENS])
def test_cli_golden(record, monkeypatch):
    monkeypatch.chdir(ROOT)
    _check_golden(record)


@pytest.mark.parametrize(
    "bad",
    [["f-equiv", "--cycle"], ["no-such-verb"], ["chebyshev", "--n", "7", "--bogus"], ["witt", "check", "--ring"], []],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_parse_failure_then_golden(bad, monkeypatch):
    """A call that fails to parse leaves nothing behind for the next call
    in the same process."""
    monkeypatch.chdir(ROOT)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(bad) == 1
    assert err.getvalue().startswith("error: ")
    same_verb = [r for r in GOLDENS if bad and r["argv"][0] == bad[0]]
    for record in same_verb[:3] or GOLDENS[:1]:
        _check_golden(record)


def test_verbs_do_not_leak_defaults(monkeypatch):
    """Every golden again in one process, in reverse and interleaved with
    the forward order, so each verb runs right after others that set
    options it leaves at their defaults."""
    monkeypatch.chdir(ROOT)
    for fwd, rev in zip(GOLDENS, reversed(GOLDENS)):
        _check_golden(rev)
        _check_golden(fwd)


UNDER_O = [
    ["dr-table", "--cycle", "12*inf", "--output", "csv"],
    ["ray-class", "--cycle", "100", "--output", "csv"],
    ["dr-table", "--cycle", "10007*inf", "--json"],
    ["f-equiv", "--field", "d:-5", "--cycle", "[2, 1+w, 1]", "--a", "[3, 1+w, 1]", "--b", "[3, 2+w, 1]", "--json"],
    ["dr-mul", "--field", "d:-3", "--cycle", "[7, 2+w, 1]", "--a", "[3, 1+w, 1]", "--b", "[7, 4+w, 1]", "--json"],
    ["ray-class", "--field", "d:-5", "--cycle", "[3, 1+w, 1]", "--json"],
    ["cotangent", "--a", "12", "--q", "5", "--output", "csv"],
    ["periodic-locus", "--family", "chebyshev", "--n", "12", "--json"],
    ["witt", "periodic", "--n", "3", "--bound", "32", "--ring", "Z", "--json"],
]

TABLE_CHECK_UNDER_O = textwrap.dedent(
    """
    import sys
    from lambda_forge.errors import InputError
    from lambda_forge.quadfield import check_group_table
    from lambda_forge.rayclass import Cycle, RationalRayClassGroup, dr_iso_residue, dr_monoid

    if __debug__ or sys.flags.optimize != 1:
        sys.exit(3)
    broken = RationalRayClassGroup(Cycle(None, 1000, True))
    broken._class_of = list(broken._class_of)
    broken._class_of[3] = broken._class_of[7]
    dr_monoid(Cycle(None, 12, True))._res_index[5] = None
    checks = (
        lambda: check_group_table(((0, 1), (1, 1))),
        lambda: broken.table,
        lambda: dr_iso_residue(Cycle(None, 12, True)),
    )
    for check in checks:
        try:
            check()
        except InputError as exc:
            print(exc)
        else:
            sys.exit(4)
    """
)


def _run_optimized(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -B: nothing is written under src/
    return subprocess.run(
        [sys.executable, "-O", "-B", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_goldens_and_self_checks_under_python_O():
    """The refusals and the group-table checks raise errors rather than
    assert, so they survive ``python -O``."""
    records = {tuple(r["argv"]): r for r in GOLDENS}
    for argv in UNDER_O:
        record = records[tuple(argv)]
        proc = _run_optimized(["-m", "lambda_forge.cli", *argv])
        assert (proc.returncode, proc.stdout) == (record["exit"], record["stdout"]), argv
        assert "Traceback" not in proc.stderr
    proc = _run_optimized(["-c", TABLE_CHECK_UNDER_O])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["group table row is not a permutation"] * 2 + [
        "residue description failed: not multiplicative"
    ]
