"""Byte stability of the command-line front end: every invocation of the
benchmark's golden corpus (perfbench/cli_goldens.json, read only) must
give the recorded exit code and stdout, and no traceback on stderr.  The
corpus uses paths relative to the repository root, so each call runs
there."""

import contextlib
import io
import json
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
    """main reuses one parser per process: a call that fails to parse
    leaves nothing behind for the next call."""
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
