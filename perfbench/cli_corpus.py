"""The cli-batch invocation corpus and its golden capture.

Usage (from the repository root): python3 perfbench/cli_corpus.py

Runs every invocation below in a fresh ``python -m lambda_forge.cli``
child, twice under different hash seeds, and writes the expected stdout
and exit code of each to ``perfbench/cli_goldens.json``.  The goldens in
the repository were captured at the commit that introduced the benchmark;
recapture only when a change to the CLI's output is intended.

Only JSON and CSV output is used (text output carries no stability
guarantee).  The malformed inputs all exit 1 with a one-line message
today; inputs that end in a traceback are left out on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import library_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "cli_goldens.json")
FIXTURES = os.path.join(HERE, "fixtures")

GAUSS_F5 = "[5, 2+w, 1]"

CORPUS = [
    ["chebyshev", "--n", "7", "--output", "json"],
    ["chebyshev", "--n", "9", "--mod", "5", "--output", "csv"],
    ["chebyshev", "--n", "24", "--json"],
    ["f-equiv", "--cycle", "4*inf", "--a", "2", "--b", "6", "--json"],
    ["f-equiv", "--cycle", "60", "--a", "7", "--b", "53", "--json"],
    ["f-equiv", "--cycle", "45*inf", "--support", "all-except:2", "--a", "7", "--b", "97", "--output", "csv"],
    ["f-equiv", "--field", "d:-1", "--cycle", GAUSS_F5, "--a", "[2, 1+w, 1]", "--b", "[5, 3+w, 1]", "--json"],
    ["f-equiv", "--field", "d:-5", "--cycle", "[2, 1+w, 1]", "--a", "[3, 1+w, 1]", "--b", "[3, 2+w, 1]", "--json"],
    ["f-equiv", "--field", "d:-3", "--cycle", "[7, 2+w, 1]", "--a", "[3, 1+w, 1]", "--b", "[13, 3+w, 1]", "--output", "csv"],
    ["dr-table", "--cycle", "12*inf", "--output", "csv"],
    ["dr-table", "--cycle", "30", "--support", "all-except:2", "--json"],
    ["dr-table", "--field", "d:-1", "--cycle", GAUSS_F5, "--json"],
    ["dr-mul", "--cycle", "12*inf", "--a", "5", "--b", "10", "--json"],
    ["dr-mul", "--cycle", "36", "--support", "all-except:2", "--a", "5", "--b", "7", "--json"],
    ["dr-mul", "--field", "d:-3", "--cycle", "[7, 2+w, 1]", "--a", "[3, 1+w, 1]", "--b", "[7, 4+w, 1]", "--json"],
    ["ray-class", "--cycle", "30*inf", "--json"],
    ["ray-class", "--cycle", "100", "--output", "csv"],
    ["ray-class", "--field", "d:-5", "--cycle", "[3, 1+w, 1]", "--json"],
    ["model-check", "--input", "perfbench/fixtures/mu12.json", "--cycle", "12*inf", "--json"],
    ["model-check", "--input", "perfbench/fixtures/mu5pm.json", "--json"],
    ["periodic-locus", "--family", "chebyshev", "--n", "12", "--json"],
    ["periodic-locus", "--family", "toric", "--cycle", "12", "--json"],
    ["periodic-locus", "--family", "toric", "--cycle", "30*inf", "--json"],
    ["periodic-locus", "--family", "toric", "--n", "20", "--output", "csv"],
    ["witt", "convert", "--ghost", "2,4,8,64", "--trunc", "div:6", "--json"],
    ["witt", "convert", "--witt", "2,1,0,0", "--trunc", "div:6", "--json"],
    ["witt", "convert", "--ghost", "1,2,3,4,5,6", "--trunc", "upto:6", "--output", "csv"],
    ["witt", "check", "--ring", "x^4-1", "--ghost", "1,0,0,0;1,0,0,0;1,0,0,0", "--trunc", "div:4", "--json"],
    ["witt", "check", "--ghost", "1,2,1,2", "--trunc", "div:6", "--json"],
    ["witt", "periodic", "--n", "4", "--bound", "64", "--json"],
    ["witt", "periodic", "--n", "3", "--bound", "32", "--ring", "Z", "--json"],
    ["cotangent", "--a", "4", "--q", "2", "--json"],
    ["cotangent", "--a", "12", "--q", "5", "--output", "csv"],
    # malformed input: exit 1 with a message
    ["f-equiv", "--field", "x", "--cycle", "4", "--a", "1", "--b", "1", "--json"],
    ["ray-class", "--cycle", "6*inf", "--support", "bogus", "--json"],
    ["chebyshev", "--n", "notanumber", "--json"],
    ["witt", "convert", "--ghost", "1,2", "--trunc", "div:6", "--json"],
    # typed refusal: the monoid exceeds the default size bound, exit 2
    ["dr-table", "--cycle", "10007*inf", "--json"],
]


def _write_fixtures():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lambda_forge import modelcheck

    os.makedirs(FIXTURES, exist_ok=True)
    for name, s in (("mu12", modelcheck.mu_n_data(12)), ("mu5pm", modelcheck.mu_n_pm_data(5))):
        with open(os.path.join(FIXTURES, f"{name}.json"), "w") as fh:
            json.dump(s.to_json(), fh, sort_keys=True)
            fh.write("\n")


def _run(argv: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(library_env(ROOT), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "lambda_forge.cli", *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


def main() -> int:
    _write_fixtures()
    records = []
    for argv in CORPUS:
        first, second = _run(argv, "1"), _run(argv, "2")
        if b"Traceback" in first.stderr or first.returncode not in (0, 1, 2):
            print(f"unusable (traceback): {argv}", file=sys.stderr)
            return 1
        if (first.returncode, first.stdout) != (second.returncode, second.stdout):
            print(f"unusable (output not stable): {argv}", file=sys.stderr)
            return 1
        records.append({"argv": argv, "exit": first.returncode, "stdout": first.stdout.decode()})
    with open(GOLDENS, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"captured {len(records)} goldens to {os.path.relpath(GOLDENS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
