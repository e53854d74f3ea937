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


@pytest.mark.parametrize("record", GOLDENS, ids=[" ".join(r["argv"]) for r in GOLDENS])
def test_cli_golden(record, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(record["argv"]))
    assert code == record["exit"]
    assert out.getvalue() == record["stdout"]
    assert "Traceback" not in err.getvalue()
