import argparse
import io
import json
import os
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_forge import cli, witt
from lambda_forge.cli import main
from lambda_forge.errors import InputError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; malformed input is 1
        raise InputError(message)


def build_parser() -> _Parser:
    """The argparse front end the verb table replaced, kept as the
    reference that ``cli._parse`` is checked against."""
    p = _Parser(prog="lambda-forge", description=cli.__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, located=True):  # --field and --support only on the verbs that read them
        if located:
            sp.add_argument("--field", default="Q")
            sp.add_argument("--support", default="all")
        sp.add_argument("--output", choices=["json", "csv", "text"], default="text")
        sp.add_argument("--json", dest="output", action="store_const", const="json")

    sp = sub.add_parser("dr-table")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.set_defaults(fn=cli._cmd_dr_table)

    sp = sub.add_parser("dr-mul")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(fn=cli._cmd_dr_mul)

    sp = sub.add_parser("f-equiv")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(fn=cli._cmd_f_equiv)

    sp = sub.add_parser("ray-class")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.set_defaults(fn=cli._cmd_ray_class)

    sp = sub.add_parser("model-check")
    common(sp, located=False)
    sp.add_argument("--input", required=True)
    sp.add_argument("--cycle")
    sp.set_defaults(fn=cli._cmd_model_check)

    sp = sub.add_parser("chebyshev")
    common(sp, located=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mod", type=int)
    sp.set_defaults(fn=cli._cmd_chebyshev)

    sp = sub.add_parser("periodic-locus")
    common(sp, located=False)
    sp.add_argument("--family", required=True, choices=["chebyshev", "toric"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--cycle")
    sp.add_argument("--support")
    sp.set_defaults(fn=cli._cmd_periodic_locus)

    sp = sub.add_parser("witt")
    common(sp, located=False)
    sp.add_argument("witt_cmd", choices=["convert", "check", "periodic"])
    sp.add_argument("--ring", default=None)
    sp.add_argument("--ghost")
    sp.add_argument("--witt", dest="witt")
    sp.add_argument("--trunc")
    sp.add_argument("--n", type=int)
    sp.add_argument("--bound", type=int)
    sp.set_defaults(fn=cli._cmd_witt)

    sp = sub.add_parser("cotangent")
    common(sp, located=False)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=cli._cmd_cotangent)

    return p


REFERENCE = build_parser()


def _parsed(parse, argv):
    """The attribute dict a parser gives argv, or None if it refuses it."""
    try:
        return vars(parse(argv))
    except InputError:
        return None


def _reference_flags():
    """verb -> its flags as (name, takes a value, type, choices, required),
    and its positional's choices, read off the reference parser."""
    out = {}
    for verb, sp in REFERENCE._subparsers._group_actions[0].choices.items():
        flags, choices = [], []
        for action in sp._actions:
            if not action.option_strings:
                choices = list(action.choices)
            elif action.option_strings != ["-h", "--help"]:
                flags.append((action.option_strings[0], action.nargs != 0, action.type, action.choices, action.required))
        out[verb] = (flags, choices)
    return out


FLAGS = _reference_flags()
# values: ints, negatives, non-integers, choices, empty, spaces, and
# tokens that look like flags; the value -- is pinned by its own test
WILD = st.one_of(
    st.sampled_from(["12*inf", "4", "0", "-3", "json", "toric", "convert", "Q", "x", "", "1 2", "-5 ", "5_0", "-5_0",
                     "-1,2,3,4", "-x", "--json", "--cyc", "--f", "-", "-h", "--help", "a=b"]),
    st.text(alphabet="-=0123456789x, ", max_size=6).filter(lambda text: text != "--"),
)
# tokens that are neither a flag taking a value nor help: each is refused,
# save a -- next to witt's subcommand
STRAYS = st.sampled_from(["stray", "--bogus", "-x", "-5", "--", "-", "--=1", "---n"])


def _value(draw, kind, choices):
    if draw(st.integers(0, 3)) == 0:
        return draw(WILD)
    if choices:
        return draw(st.sampled_from(choices))
    return str(draw(st.integers(-99, 99))) if kind is int else draw(st.sampled_from(["12*inf", "7", "[5, 2+w, 1]", "div:6", "1,2"]))


@st.composite
def _argvs(draw):
    """(argv, the same argv with each spaced value that begins with - joined
    to its flag by =), drawn from one verb's flags: its required ones most
    of the time, full names and prefixes, both value forms, repeats,
    switches, witt's subcommand anywhere, strays, and a flag left without
    its value at the end."""
    verb = draw(st.sampled_from(sorted(FLAGS) + ["bogus"]))
    flags, choices = FLAGS.get(verb, ([("--cycle", True, None, None, True)], []))
    picked = [f for f in flags if f[4] and draw(st.integers(0, 9))] + draw(st.lists(st.sampled_from(flags), max_size=4))
    picked += [None] * (bool(choices) and draw(st.integers(0, 9)) > 0) + ["stray"] * (draw(st.integers(0, 3)) == 0)
    argv, joined = [verb], [verb]
    for flag in draw(st.permutations(picked)):
        if flag is None or flag == "stray":
            token = draw(st.sampled_from(choices + ["bogus"]) if flag is None else STRAYS)
            argv.append(token)
            joined.append(token)
            continue
        name, valued, kind, flag_choices, _ = flag
        name = name[: draw(st.integers(3, len(name)))]
        if not valued:
            token = name + draw(st.sampled_from(["", "", "", "=x", "="]))
            argv.append(token)
            joined.append(token)
        elif draw(st.booleans()):
            value = _value(draw, kind, flag_choices)
            argv += [name, value]
            joined += [f"{name}={value}"] if value.startswith("-") else [name, value]
        else:
            token = f"{name}={_value(draw, kind, flag_choices)}"
            argv.append(token)
            joined.append(token)
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from([f[0] for f in flags if f[1]])))
        joined.append(argv[-1])
    if draw(st.integers(0, 19)) == 0:
        return argv[1:], joined[1:]
    return argv, joined


@settings(max_examples=1500, deadline=None)
@given(_argvs())
def test_parser_matches_argparse(argvs):
    """The table parser accepts exactly the argv argparse accepts, with the
    same values.  The one deliberate difference: argparse refuses a spaced
    value that begins with - and is not a number ("expected one
    argument"), which the table parser reads as argparse reads the same
    value after = ."""
    argv, joined = argvs
    assert _parsed(cli._parse, argv) == _parsed(REFERENCE.parse_args, joined)


@pytest.mark.parametrize(
    "argv",
    [
        ["chebyshev", "--n", "7", "--output", "csv", "--json"],
        ["chebyshev", "--n", "7", "--json", "--output", "csv"],
        ["chebyshev", "--n=7", "--n", "8", "--j"],
        ["dr-table", "--cyc", "12*inf", "--out=json", "--field=Q"],
        ["witt", "--ghost", "2,4,8,64", "--trunc=div:6", "convert", "--json"],
        ["witt", "--json", "--", "convert"],
        ["witt", "convert", "--"],
        ["cotangent", "--a", "-4", "--q", "2"],
    ],
)
def test_parser_examples_match_argparse(argv):
    assert _parsed(cli._parse, argv) == _parsed(REFERENCE.parse_args, argv) is not None


def test_negative_values_after_a_space_are_read():
    """argparse refused --ghost -1,2,3,4 ("expected one argument") yet
    answered --ghost=-1,2,3,4; both forms now give the same answer."""
    spaced = run_cli(["witt", "convert", "--ghost", "-1,2,3,4", "--trunc", "div:6", "--json"])
    assert spaced == run_cli(["witt", "convert", "--ghost=-1,2,3,4", "--trunc", "div:6", "--json"])
    assert spaced[0] == 0
    assert _parsed(REFERENCE.parse_args, ["witt", "convert", "--ghost", "-1,2,3,4"]) is None


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["model-check", "--input", "s.json", "--cycle=--"], "cycle", "--"),
        (["witt", "convert", "--ring=--"], "ring", "--"),
        (["chebyshev", "--n=--"], "n", None),
        (["chebyshev", "--n", "2", "--output=--"], "output", None),
        (["periodic-locus", "--family=--"], "family", None),
    ],
)
def test_double_dash_value_is_a_string(argv, name, value):
    """argparse drops the -- of --flag=-- as its end-of-flags marker and
    stores an empty list, skipping the type and the choices: the handlers
    met it as a traceback, as no --cycle, as the ring Z or as text output.
    The table parser reads the string --, which the flag's type, choices
    or handler refuses."""
    assert _parsed(REFERENCE.parse_args, argv)[name] == []
    parsed = _parsed(cli._parse, argv)
    assert (parsed if parsed is None else parsed[name]) == value


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["witt", "-h"], ["chebyshev", "--n", "2", "--help"]])
def test_help_lists_every_verb(argv, capsys):
    assert run_cli(argv)[0] == 0
    assert capsys.readouterr().err == ""
    out = run_cli(argv)[1]
    assert out.startswith("usage: lambda-forge")
    verbs = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert verbs == list(REFERENCE._subparsers._group_actions[0].choices)
    for flags, choices in FLAGS.values():
        assert all(flag[0] in out for flag in flags) and all(choice in out for choice in choices)


def test_cli_does_not_import_argparse():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import lambda_forge.cli, sys; print('argparse' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_chebyshev_text():
    code, out = run_cli(["chebyshev", "--n", "2"])
    assert code == 0 and out == "y^2 - 2\n"
    code, out = run_cli(["chebyshev", "--n", "5", "--output", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 5, "coefficients": [0, 5, 0, -5, 0, 1]}


def test_f_equiv_command():
    code, out = run_cli(["f-equiv", "--field", "Q", "--cycle", "4*inf", "--a", "2", "--b", "6"])
    assert code == 0 and out == "true\n"
    code, out = run_cli(["f-equiv", "--cycle", "5*inf", "--a", "2", "--b", "3"])
    assert code == 0 and out == "false\n"
    code, out = run_cli(["f-equiv", "--field", "d:-1", "--cycle", "[5, 2+w, 1]", "--a", "[2, 1+w, 1]", "--b", "[5, 3+w, 1]"])
    assert code == 0


def test_dr_table_row_count():
    code, out = run_cli(["dr-table", "--field", "Q", "--cycle", "6*inf", "--output", "csv"])
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 6


def test_byte_stability():
    args = ["dr-table", "--cycle", "12*inf", "--output", "json"]
    outs = {run_cli(args)[1] for _ in range(3)}
    assert len(outs) == 1
    args = ["witt", "periodic", "--n", "2", "--bound", "16", "--json"]
    outs = {run_cli(args)[1] for _ in range(2)}
    assert len(outs) == 1


def test_exit_codes():
    code, _ = run_cli(["chebyshev", "--n", "notanumber"])
    assert code == 1
    code, _ = run_cli(["f-equiv", "--cycle", "banana", "--a", "1", "--b", "1"])
    assert code == 1
    code, _ = run_cli(["no-such-command"])
    assert code == 1
    # typed refusal: density required
    code, _ = run_cli(["dr-table", "--cycle", "6*inf", "--support", "explicit:5"])
    assert code == 0  # the table itself is fine on explicit supports
    code, _ = run_cli(["ray-class", "--cycle", "6*inf", "--support", "bogus"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["f-equiv", "--cycle", "4", "--a", "0", "--b", "4", "--json"],
        ["f-equiv", "--cycle", "4", "--a", "0", "--b", "4", "--support", "all-except:3", "--json"],
        ["dr-mul", "--cycle", "4*inf", "--a", "0", "--b", "-2", "--json"],
        ["dr-mul", "--cycle", "4*inf", "--a", "2", "--b", "-2", "--json"],
    ],
)
def test_non_ideals_rejected(argv, capsys):
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: a rational ideal must be a positive integer\n"


def test_witt_periodic_solves_each_lattice_once(monkeypatch):
    from lambda_forge import witt

    solves = []
    solve = witt.periodic_witt_lattice

    def counted_solve(n, ring, bound):
        solves.append(ring)
        return solve(n, ring, bound)

    monkeypatch.setattr(witt, "periodic_witt_lattice", counted_solve)
    assert run_cli(["witt", "periodic", "--n", "2", "--bound", "16", "--json"])[0] == 0
    assert solves == [witt.binomial_quotient_ring(2)]
    solves.clear()
    assert run_cli(["witt", "periodic", "--n", "2", "--bound", "16", "--ring", "Z", "--json"])[0] == 0
    assert solves == [witt.binomial_quotient_ring(2), witt.INTEGERS]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_witt_periodic_refuses_levels_below_one(n, capsys):
    """--n 0 is given, not missing, and a negative level is refused by the
    comparison itself before any coefficient ring is built."""
    code, out = run_cli(["witt", "periodic", "--n", n, "--bound", "16"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: need n >= 1 and bound >= 4\n"


def test_unknown_flag_rejected():
    code, _ = run_cli(["chebyshev", "--n", "2", "--frobnicate"])
    assert code == 1


def test_witt_convert_and_check():
    code, out = run_cli(["witt", "convert", "--ghost", "2,4,8,64", "--trunc", "div:6", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["integral"] == {"1": True, "2": True, "3": True, "6": True}
    code, out = run_cli(["witt", "check", "--ghost", "1,2,1,2", "--trunc", "div:6"])
    assert code == 0 and out == "false\n"
    code, out = run_cli(["witt", "convert", "--witt", "2,1,0,0", "--trunc", "div:6", "--output", "json"])
    assert code == 0
    assert json.loads(out)["ghost"]["2"] == [6]


def test_model_check_command(tmp_path):
    from lambda_forge.modelcheck import mu_n_data

    path = tmp_path / "s.json"
    path.write_text(json.dumps(mu_n_data(4).to_json()))
    code, out = run_cli(["model-check", "--input", str(path), "--cycle", "4*inf", "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["exists"] is True and data["minimal_cycle"] == "4*inf" and data["r"] == 4
    code, out = run_cli(["model-check", "--input", str(path), "--cycle", "4", "--output", "json"])
    assert json.loads(out)["exists"] is False
    code, _ = run_cli(["model-check", "--input", str(tmp_path / "missing.json")])
    assert code == 1


# runs the verb in a child that reports how long main() took: a key of 1
# used to loop forever in has_integral_model, so the parent must not wedge
TIMED_MAIN = """
import sys, time
from lambda_forge.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"elapsed {time.perf_counter() - start:.6f}", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("key", ["1", "0", "4", "6", "-3"])
def test_model_check_refuses_special_keys_that_are_not_primes(key, tmp_path):
    """1 used to hang, 0 to raise ZeroDivisionError, 4 and 6 to be answered,
    and -3 to be refused late as a non-ideal."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"size": 2, "m": 1, "galois": {"1": [0, 1]}, "special": {key: [0, 1]}}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TIMED_MAIN, "model-check", "--input", str(path)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    error, elapsed = proc.stderr.splitlines()
    assert error == f"error: special map key {key} is not a prime"
    assert float(elapsed.removeprefix("elapsed ")) < 1.0


def test_periodic_locus_commands():
    code, out = run_cli(["periodic-locus", "--family", "chebyshev", "--n", "12", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["cokernel_order"] == 2 and data["Q"][-1] == 1
    for cycle in ("12", "10"):
        code, out = run_cli(["periodic-locus", "--family", "toric", "--cycle", cycle, "--json"])
        assert code == 0 and json.loads(out)["exponent"] == 2


@pytest.mark.parametrize("cycle, support", [("5", "explicit:5!"), ("16", "explicit:3")])
def test_unstable_toric_scan_refused(cycle, support, capsys):
    code, out = run_cli(["periodic-locus", "--family", "toric", "--cycle", cycle, "--support", support, "--json"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1


def test_cotangent_command():
    code, out = run_cli(["cotangent", "--a", "4", "--q", "2"])
    assert code == 0 and out == "1\n"
    code, out = run_cli(["cotangent", "--a", "4", "--q", "3"])
    assert out == "0\n"


@pytest.mark.parametrize(
    "argv, answered",
    [
        (["cotangent", "--a", "1000", "--q", "2"], lambda out: out == "1\n"),
        (["periodic-locus", "--family", "chebyshev", "--n", "1200", "--json"], lambda out: json.loads(out)["cokernel_order"] == 2),
    ],
    ids=["cotangent-1000", "chebyshev-1200"],
)
def test_group_ring_lattices_within_the_cap(argv, answered):
    """The closed-form certificates take O(a) shift-adds for the cotangent
    and O(n^2) for the Chebyshev image: well under a second each on a
    2-CPU x86 host, where Hermite folds of the same lattices took 19-23 s
    and about 12 s."""
    start = time.perf_counter()
    code, out = run_cli(argv)
    elapsed = time.perf_counter() - start
    assert code == 0 and answered(out)
    assert elapsed < 20, elapsed


def test_bound_refusal_exit_2(monkeypatch):
    import lambda_forge.rayclass as rc

    rc._dr_monoid.cache_clear()
    rc._ray_class_group.cache_clear()
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "4")
    code, _ = run_cli(["dr-table", "--cycle", "12*inf"])
    assert code == 2
    monkeypatch.delenv("LAMBDA_FORGE_BOUND")
    code, _ = run_cli(["dr-table", "--cycle", "12*inf"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["ray-class", "--cycle", "99999999999*inf"],
        ["f-equiv", "--cycle", "99999999999", "--a", "1", "--b", "2"],
        ["periodic-locus", "--family", "toric", "--cycle", "99999999999*inf"],
    ],
)
def test_oversized_rational_conductor_refused_before_enumerating(argv, capsys):
    """phi(n) unit residues over the residue bound are refused before any
    residue list of length n is built."""
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == "refused: 66663457344 unit residues mod 99999999999 over residue bound\n"


# (10**14 + 31) * (2 * 10**14 + 27), and the product of the least primes
# past 10**30 and 3 * 10**30: factoring took 12-14 s on the first and ran
# past 20 s on the second
SEMIPRIMES = ("20000000000008900000000000837", "3000000000000000000000000000262000000000000000000000000005187")


@pytest.mark.parametrize("n", SEMIPRIMES)
@pytest.mark.parametrize(
    "argv",
    [
        ["ray-class", "--cycle", "{n}*inf"],
        ["f-equiv", "--cycle", "{n}", "--a", "2", "--b", "3"],
        ["periodic-locus", "--family", "toric", "--cycle", "{n}"],
        ["dr-mul", "--cycle", "{n}", "--a", "2", "--b", "3"],
        ["dr-table", "--cycle", "{n}*inf"],
    ],
)
def test_oversized_rational_conductor_refused_before_factoring(argv, n, capsys):
    """n > 2 * (residue bound)**2 has phi(n) >= sqrt(n/2) over the bound:
    refused before n is factored."""
    start = time.perf_counter()
    code, out = run_cli([arg.format(n=n) for arg in argv])
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"refused: unit residues mod {n} over residue bound (phi(n) >= sqrt(n/2))\n"
    assert elapsed < 1, elapsed


def test_f_equiv_of_an_oversized_conductor_with_itself():
    """(n) and (n) share their gcd n with the cycle: the cofactor group is
    the one mod 1, and no group mod n is built."""
    n = SEMIPRIMES[0]
    assert run_cli(["f-equiv", "--cycle", n, "--a", n, "--b", n]) == (0, "true\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["model-check", "--cycle=", "--input"], "cannot parse cycle ''; expected \"12\" or \"12*inf\""),
        (["periodic-locus", "--family", "toric", "--cycle="], "cannot parse cycle ''; expected \"12\" or \"12*inf\""),
        (["witt", "convert", "--ghost=", "--witt", "1,2,3,4", "--trunc", "div:6"], "convert takes --ghost or --witt, not both"),
        (["witt", "convert", "--ring=", "--witt", "1,2,3,4", "--trunc", "div:6"], "ring must be Z or x^k-1"),
        (["witt", "periodic", "--ring=", "--n", "3"], "ring must be Z or x^k-1"),
    ],
)
def test_empty_flag_value_reaches_its_parser(argv, err, tmp_path, capsys):
    """--flag= gives the empty string, which the flag's own parser refuses;
    it is never read as the flag left out."""
    if argv[-1] == "--input":
        path = tmp_path / "s.json"
        path.write_text('{"size": 2, "m": 1, "galois": {"1": [0, 1]}, "special": {}}')
        argv = argv + [str(path)]
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == f"error: {err}\n"


def test_module_entry_point_exits_with_main_code(monkeypatch, capsys):
    """python -m lambda_forge.cli exits with the code main returns."""
    monkeypatch.setattr(sys, "argv", ["lambda_forge.cli", "chebyshev", "--n", "2"])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("ignore", RuntimeWarning)  # the module is imported already
        runpy.run_module("lambda_forge.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "y^2 - 2\n"


@pytest.mark.parametrize("cycle", ["999983*inf", "10007*inf", "1000000"])
def test_oversized_monoid_refused_before_building(cycle, capsys):
    """phi(n) unit residues within the residue bound but a monoid over the
    monoid bound: counted and refused before the O(n) group builds."""
    start = time.perf_counter()
    code, out = run_cli(["dr-table", "--cycle", cycle])
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "refused: ray class monoid larger than monoid bound\n"
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize(
    "d, err",
    [
        (-100000007, "discriminant -100000007 over residue bound"),
        (-10000000019, "discriminant -10000000019 over residue bound"),
        (-300007, "class group table of 145^2 cells over monoid bound"),
    ],
)
def test_oversized_class_group_refused_at_once(d, err, capsys):
    """|disc| over the residue bound is refused before the scan for reduced
    forms, h^2 over the monoid bound before the class group's table."""
    start = time.perf_counter()
    code, out = run_cli(["ray-class", "--field", f"d:{d}", "--cycle", "[1, 0+w, 1]"])
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"refused: {err}\n"
    assert elapsed < 1, elapsed


def test_class_group_within_the_bounds_answers():
    """d = -100003: |disc| and h^2 = 39^2 are within the bounds."""
    code, out = run_cli(["ray-class", "--field", "d:-100003", "--cycle", "[1, 0+w, 1]"])
    assert code == 0 and out == "ray class group of conductor [1, 0+w, 1]: order 39\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["chebyshev", "--n", "20000", "--json"],
        ["periodic-locus", "--family", "chebyshev", "--n", "20000", "--json"],
    ],
)
def test_chebyshev_degree_over_the_bound_refused_at_once(argv, capsys):
    start = time.perf_counter()
    code, out = run_cli(argv)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "refused: Chebyshev degree 20000 over degree bound\n"
    assert elapsed < 1, elapsed


@pytest.mark.parametrize(
    "argv, err",
    [
        (["witt", "periodic", "--n", "200", "--bound", "64", "--json"], "40000 periodic lattice variables"),
        (["witt", "periodic", "--n", "4", "--bound", "100000000", "--json"], "congruence sweep to 100000000"),
    ],
)
def test_witt_periodic_over_the_lattice_bound_refused_at_once(argv, err, capsys):
    start = time.perf_counter()
    code, out = run_cli(argv)
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"refused: {err} over lattice bound\n"
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("bound, a", [(None, 1000001), ("12", 13)])
def test_cotangent_level_over_the_residue_bound_refused_at_once(bound, a, monkeypatch, capsys):
    """The level is refused before any row of length a is built; the
    residue bound scales with LAMBDA_FORGE_BOUND like the others."""
    if bound is not None:
        monkeypatch.setenv("LAMBDA_FORGE_BOUND", bound)
        assert run_cli(["cotangent", "--a", bound, "--q", "2"]) == (0, "1\n")
    start = time.perf_counter()
    code, out = run_cli(["cotangent", "--a", str(a), "--q", "2"])
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"refused: cotangent level {a} over residue bound\n"
    assert elapsed < 1, elapsed


def test_chebyshev_degree_bound_covers_cached_levels(monkeypatch, capsys):
    assert run_cli(["chebyshev", "--n", "12"])[0] == 0
    assert run_cli(["periodic-locus", "--family", "chebyshev", "--n", "12"])[0] == 0
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", "11")
    assert run_cli(["chebyshev", "--n", "12"]) == (2, "")
    assert run_cli(["periodic-locus", "--family", "chebyshev", "--n", "12"]) == (2, "")
    assert capsys.readouterr().err == "refused: Chebyshev degree 12 over degree bound\n" * 2
    assert run_cli(["chebyshev", "--n", "11"])[0] == 0


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_malformed_bound_rejected(value, monkeypatch, capsys):
    import lambda_forge.rayclass as rc

    rc._dr_monoid.cache_clear()
    rc._ray_class_group.cache_clear()
    monkeypatch.setenv("LAMBDA_FORGE_BOUND", value)
    code, out = run_cli(["dr-table", "--cycle", "12*inf"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["convert", "check"])
def test_witt_component_count_refused_from_the_truncation_spec(verb, capsys):
    # one component where upto:300000 needs 300000: the count is compared
    # with the spec's size, before the 300000-member set is built
    start = time.perf_counter()
    code, out = run_cli(["witt", verb, "--ghost", "1", "--trunc", "upto:300000"])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: expected 300000 components for the truncation set\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["witt", "convert", "--trunc", "div:2", "--ghost", "1,2", "--witt", "1,2"], "convert takes --ghost or --witt, not both"),
        (["witt", "convert", "--witt", "2,1,0,0", "--ghost", "2,4,8,64", "--trunc", "div:6", "--json"], "convert takes --ghost or --witt, not both"),
        (["witt", "check", "--trunc", "div:2", "--ghost", "1,2", "--witt", "1,2"], "witt check takes no --witt"),
        (["witt", "check", "--trunc", "div:2", "--witt", "1,2"], "witt check takes no --witt"),
        (["witt", "periodic", "--n", "2", "--bound", "16", "--ghost", "1,2"], "witt periodic takes no --ghost"),
        (["witt", "periodic", "--n", "2", "--bound", "16", "--witt", "1"], "witt periodic takes no --witt"),
        (["witt", "periodic", "--n", "2", "--bound", "16", "--trunc", "div:6"], "witt periodic takes no --trunc"),
    ],
)
def test_witt_input_the_verb_would_ignore_refused(argv, err, capsys):
    # convert used to answer from --ghost alone, check ignored --witt, and
    # periodic ignored all three
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["periodic-locus", "--family", "chebyshev", "--n", "12", "--cycle", "12"], "periodic-locus chebyshev takes no --cycle"),
        (["periodic-locus", "--family", "chebyshev", "--cycle", "12*inf", "--json"], "periodic-locus chebyshev takes no --cycle"),
        (["periodic-locus", "--family", "toric", "--cycle", "12", "--n", "5", "--json"], "the toric family takes --cycle or --n, not both"),
    ],
)
def test_periodic_locus_input_the_family_would_ignore_refused(argv, err, capsys):
    # chebyshev ignored --cycle, and toric dropped --n for --cycle
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["periodic-locus", "--family", "chebyshev"], "periodic-locus chebyshev needs --n"),
        (["periodic-locus", "--family", "toric"], "the toric family needs --cycle or --n"),
        (["periodic-locus", "--family", "toric", "--json"], "the toric family needs --cycle or --n"),
    ],
)
def test_periodic_locus_family_without_its_input_refused(argv, err, capsys):
    # toric used to build the cycle (None) and refuse it as a rational ideal
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


def test_frob_flag_validation():
    code, _ = run_cli(["witt", "check", "--ring", "x^4-1", "--frob", "id", "--ghost", "0;0;0;0", "--trunc", "div:4"])
    assert code == 1


# the exact message of each malformed truncation bound (and, below, of a
# component past the digit limit)
BOUND_MESSAGES = {
    ("witt", "convert", "--ghost", "1", "--trunc", spec): f"error: the truncation bound must be at least 1, got {n}\n"
    for spec, n in [("div:0", 0), ("div:-3", -3), ("upto:0", 0), ("upto:-5", -5)]
}
# an integer past Python's digit limit (3.11+) is named as such, and only a
# prefix of its digits is echoed
if hasattr(sys, "get_int_max_str_digits"):
    BOUND_MESSAGES[("witt", "convert", "--trunc", "div:2", "--ghost", "1," + "9" * 5000)] = (
        f"error: a component is over Python's limit of {sys.get_int_max_str_digits()} digits, "
        f"got '{'9' * 20}'... (5000 characters)\n"
    )


@pytest.mark.parametrize(
    "argv, input_text",
    [
        (["f-equiv", "--cycle", "4", "--a", "x", "--b", "1"], None),
        (["f-equiv", "--field", "d:abc", "--cycle", "[2, 1+w, 1]", "--a", "[2, 1+w, 1]", "--b", "[2, 1+w, 1]"], None),
        (["witt", "convert", "--ghost", "1,a,3,4", "--trunc", "div:6"], None),
        (["model-check", "--input"], '{"size": 2, "m": '),
        (["model-check", "--input"], '{"size": 2}'),
        (["chebyshev", "--n", "5", "--mod", "0"], None),
        (["periodic-locus", "--family", "chebyshev"], None),
        (["--jobs", "2", "periodic-locus", "--family", "toric", "--cycle", "10"], None),
        (["periodic-locus", "--family", "toric", "--cycle", "10", "--jobs", "2"], None),
        (["witt", "convert", "--ring", "x^1-1", "--ghost", "1", "--trunc", "div:1"], None),
        (["witt", "convert", "--ring", "x^0-1", "--ghost", "1", "--trunc", "div:1"], None),
        (["model-check", "--input"], '{"size": -1, "m": 1, "galois": {"1": []}, "special": {}}'),
        (["witt", "check", "--trunc", "div:6"], None),
        *((list(argv), None) for argv in BOUND_MESSAGES),
        # refused by the parser: each was refused by argparse too
        *(
            (argv, None)
            for argv in [
                [],
                ["no-such-verb"],
                ["--json", "chebyshev", "--n", "2"],
                ["chebyshev"],
                ["chebyshev", "--n"],
                ["chebyshev", "--n", "x", "--n", "2"],
                ["chebyshev", "--n", "2", "--mod", "1.5"],
                ["cotangent", "--a", "4", "--q", "2e3"],
                ["witt", "periodic", "--n", "2", "--bound", "big"],
                ["periodic-locus", "--f", "toric"],
                ["periodic-locus", "--family", "circle"],
                ["chebyshev", "--n", "2", "--output", "xml"],
                ["chebyshev", "--n", "2", "--json=yes"],
                ["chebyshev", "--n", "2", "stray"],
                ["chebyshev", "--n", "2", "--"],
                ["witt", "convert", "check"],
                ["witt", "convert", "--json", "--"],
                ["witt", "--", "convert", "--json"],
                ["witt", "--ghost", "1"],
            ]
        ),
        # JSON values that are not integers: each was coerced by int() and answered
        *(
            (["model-check", "--input"], text)
            for text in [
                '{"size": 2.9, "m": 1, "galois": {"1": [0, 1]}, "special": {}}',
                '{"size": 2, "m": true, "galois": {"1": [0, 1]}, "special": {}}',
                '{"size": "2", "m": 1, "galois": {"1": [0, 1]}, "special": {}}',
                '{"size": 2, "m": 1, "galois": {"1": [0, 1.5]}, "special": {}}',
                '{"size": 2, "m": 1, "galois": {"1": [0, true]}, "special": {}}',
                '{"size": 2, "m": 1, "galois": {"1": "01"}, "special": {}}',
                '{"size": 2, "m": 1, "galois": {"1": [0, 1]}, "special": {"2": [0.0, 1]}}',
            ]
        ),
        # keys that are not canonical decimals, two keys for one unit, m = 0:
        # each of the first five was answered, the last raised ZeroDivisionError
        *(
            (["model-check", "--input"], text)
            for text in [
                '{"size": 2, "m": 1, "galois": {" +1_0": [0, 1]}, "special": {}}',
                '{"size": 2, "m": 1, "galois": {"01": [0, 1]}, "special": {}}',
                '{"size": 2, "m": 1, "galois": {"1": [0, 1]}, "special": {"02": [0, 1]}}',
                '{"size": 3, "m": 5, "galois": {"1": [0, 1, 2], "2": [0, 2, 1], "3": [0, 2, 1], "4": [0, 1, 2], "9": [0, 1, 2]}, '
                '"special": {"5": [0, 0, 0]}}',
                '{"size": 3, "m": 5, "galois": {"1": [0, 1, 2], "2": [0, 2, 1], "3": [0, 2, 1], "4": [0, 1, 2], "-4": [0, 1, 2]}, '
                '"special": {"5": [0, 0, 0]}}',
                '{"size": 1, "m": 0, "galois": {"1": [0]}, "special": {}}',
            ]
        ),
        # a component of the wrong length for the ring, and convert with neither vector
        (["witt", "convert", "--ring", "x^2-1", "--ghost", "1,2;3", "--trunc", "div:2"], None),
        (["witt", "convert", "--trunc", "div:6"], None),
        # an empty value is parsed, not read as an absent flag: each of the
        # first four was answered, and the toric cycle was refused as an ideal
        (["model-check", "--cycle=", "--input"], '{"size": 2, "m": 1, "galois": {"1": [0, 1]}, "special": {}}'),
        (["witt", "convert", "--ghost=", "--witt", "1,2,3,4", "--trunc", "div:6"], None),
        (["witt", "convert", "--ring=", "--witt", "1,2,3,4", "--trunc", "div:6"], None),
        (["witt", "periodic", "--ring=", "--n", "3"], None),
        (["periodic-locus", "--family", "toric", "--cycle="], None),
    ],
)
def test_parse_failures_exit_1(argv, input_text, tmp_path, capsys):
    if input_text is not None:
        path = tmp_path / "s.json"
        path.write_text(input_text)
        argv = argv + [str(path)]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if tuple(argv) in BOUND_MESSAGES:
        assert err == BOUND_MESSAGES[tuple(argv)]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before Python 3.11")
def test_witt_convert_prints_integers_past_the_digit_limit(capsys):
    """g_4608 of thirty nines has 4,398 digits, past Python's default limit
    of 4,300 for printing an int: it is printed in full, and the limit is
    restored after."""
    trunc = witt.TruncationSet.divisors_of(4608)
    w = witt.WittCoords.make(witt.INTEGERS, trunc, {d: (9,) for d in trunc.sorted()})
    want = witt.ghost_from_witt(w).component(4608)
    limit = sys.get_int_max_str_digits()
    outs = []
    for extra in ([], ["--json"]):
        code, out = run_cli(["witt", "convert", "--ring", "Z", "--trunc", "div:4608", "--witt", ",".join(["9"] * 30), *extra])
        assert code == 0 and capsys.readouterr().err == ""
        assert sys.get_int_max_str_digits() == limit
        outs.append(out)
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(want[0])) > limit
        assert outs[0].endswith(f"; g_4608={want}\n")
        assert json.loads(outs[1])["ghost"]["4608"] == list(want)
    finally:
        sys.set_int_max_str_digits(limit)


# The flags each verb took at the parent commit, whatever its handler read,
# written out by hand rather than read off the verb table.
PARENT_FLAGS = {
    "dr-table": ("--cycle", "--field", "--support", "--output", "--json"),
    "dr-mul": ("--cycle", "--a", "--b", "--field", "--support", "--output", "--json"),
    "f-equiv": ("--cycle", "--a", "--b", "--field", "--support", "--output", "--json"),
    "ray-class": ("--cycle", "--field", "--support", "--output", "--json"),
    "model-check": ("--input", "--cycle", "--field", "--support", "--output", "--json"),
    "chebyshev": ("--n", "--mod", "--field", "--support", "--output", "--json"),
    "periodic-locus": ("--family", "--n", "--cycle", "--field", "--support", "--output", "--json"),
    "witt": ("--ring", "--frob", "--ghost", "--witt", "--trunc", "--n", "--bound", "--field", "--support", "--output", "--json"),
    "cotangent": ("--a", "--q", "--field", "--support", "--output", "--json"),
}
MU12, MU5PM = (str(Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / name) for name in ("mu12.json", "mu5pm.json"))
# verb or mode -> (an argv it answers, {each flag it reads besides --output
# and --json: two tails that give two answers put after that argv})
READS = {
    "dr-table": (["dr-table", "--cycle", "6*inf"], {
        "--cycle": (["--cycle", "6*inf"], ["--cycle", "10*inf"]),
        "--field": (["--field", "Q"], ["--field", "d:-1"]),
        "--support": (["--support", "all"], ["--support", "all-except:2"]),
    }),
    "dr-mul": (["dr-mul", "--cycle", "12*inf", "--a", "5", "--b", "7"], {
        "--cycle": (["--cycle", "12*inf"], ["--cycle", "8*inf"]),
        "--a": (["--a", "5"], ["--a", "7"]),
        "--b": (["--b", "7"], ["--b", "11"]),
        "--field": (["--field", "Q"], ["--field", "d:-1"]),
        "--support": (["--support", "all"], ["--support", "all-except:5"]),
    }),
    "f-equiv": (["f-equiv", "--cycle", "4*inf", "--a", "2", "--b", "6"], {
        "--cycle": (["--cycle", "4*inf"], ["--cycle", "5*inf"]),
        "--a": (["--a", "2"], ["--a", "3"]),
        "--b": (["--b", "6"], ["--b", "5"]),
        "--field": (["--field", "Q"], ["--field", "d:-1"]),
        "--support": (["--support", "all"], ["--support", "all-except:2"]),
    }),
    "ray-class": (["ray-class", "--cycle", "12*inf"], {
        "--cycle": (["--cycle", "12*inf"], ["--cycle", "30*inf"]),
        "--field": (["--field", "Q"], ["--field", "d:-1"]),
        "--support": (["--support", "all"], ["--support", "explicit:5"]),
    }),
    "model-check": (["model-check", "--input", MU12], {
        "--input": (["--input", MU12], ["--input", MU5PM]),
        "--cycle": ([], ["--cycle", "12"]),
    }),
    "chebyshev": (["chebyshev", "--n", "5"], {
        "--n": (["--n", "5"], ["--n", "7"]),
        "--mod": (["--mod", "3"], ["--mod", "7"]),
    }),
    "periodic-locus chebyshev": (["periodic-locus", "--family", "chebyshev", "--n", "12"], {
        "--family": (["--family", "chebyshev"], ["--family", "toric"]),
        "--n": (["--n", "12"], ["--n", "10"]),
    }),
    "periodic-locus toric": (["periodic-locus", "--family", "toric", "--cycle", "12"], {
        "--family": (["--family", "toric"], ["--family", "chebyshev", "--n", "12"]),
        "--cycle": (["--cycle", "12"], ["--cycle", "30*inf"]),
        "--n": ([], ["--n", "12"]),  # one of --cycle and --n
        "--support": (["--support", "all"], ["--support", "explicit:5"]),
    }),
    "witt convert": (["witt", "convert", "--ghost", "1,2,3,4", "--trunc", "div:6"], {
        "--ring": (["--ring", "Z"], ["--ring", "x^2-1"]),
        "--ghost": (["--ghost", "1,2,3,4"], ["--ghost", "2,4,8,64"]),
        "--witt": ([], ["--witt", "1,0,0,0"]),  # one of --ghost and --witt
        "--trunc": (["--trunc", "div:6"], ["--trunc", "upto:4"]),
    }),
    "witt check": (["witt", "check", "--ghost", "1,3,1,9", "--trunc", "div:6"], {
        "--ring": (["--ring", "Z"], ["--ring", "x^2-1"]),
        "--ghost": (["--ghost", "1,3,1,9"], ["--ghost", "1,2,1,2"]),
        "--trunc": (["--trunc", "div:6"], ["--trunc", "upto:4"]),
    }),
    "witt periodic": (["witt", "periodic", "--n", "2", "--bound", "16"], {
        "--ring": ([], ["--ring", "Z"]),
        "--n": (["--n", "2"], ["--n", "3"]),
        "--bound": (["--bound", "16", "--json"], ["--bound", "32", "--json"]),  # the text omits it
    }),
    "cotangent": (["cotangent", "--a", "4", "--q", "2"], {
        "--a": (["--a", "4"], ["--a", "5"]),
        "--q": (["--q", "2"], ["--q", "3"]),
    }),
}
# a value the parent answered for each flag some verb or mode does not read
UNREAD_VALUES = {"--field": "Q", "--support": "all", "--frob": "p:x^p", "--cycle": "12", "--n": "4", "--bound": "64",
                 "--ghost": "1,2,3,4", "--witt": "1,0,0,0", "--trunc": "div:6"}


def _outcome(argv, capsys):
    code, out = run_cli(argv)
    return code, out, capsys.readouterr().err


def test_every_accepted_flag_changes_an_answer(capsys):
    """A flag a verb or mode reads changes the answer between two values; a
    flag of the parent's verb that it does not read is refused, even at the
    value the parent answered."""
    for mode, (argv, reads) in READS.items():
        assert _outcome(argv, capsys)[0] == 0, mode
        reads = {**reads, "--output": (["--output", "json"], ["--output", "csv"]), "--json": ([], ["--json"])}
        for flag in PARENT_FLAGS[mode.split()[0]]:
            if flag in reads:
                first, second = (_outcome(argv + tail, capsys)[:2] for tail in reads[flag])
                assert first != second, (mode, flag)
            else:
                code, out, err = _outcome(argv + [flag, UNREAD_VALUES[flag]], capsys)
                assert (code, out) == (1, ""), (mode, flag)
                assert err.startswith("error: ") and err.count("\n") == 1, (mode, flag)


DASH_VALUES = ("-", "-0", "-1", "-2", "-12", "-1*inf", "-1,2,3,4", "-x", "-h", "--", "--json", "--help", "---")


def test_exit_code_grid(capsys):
    """Every parent flag of every verb and mode, after an argv the mode
    answers, with values that begin with - spaced and with --flag=--: an
    exit of 0, 1 or 2, no traceback, and a refusal prints one line."""
    start = time.perf_counter()
    for mode, (argv, _) in READS.items():
        for flag in PARENT_FLAGS[mode.split()[0]]:
            for tail in [[flag, value] for value in DASH_VALUES] + [[f"{flag}=--"]]:
                code, out, err = _outcome(argv + tail, capsys)
                assert code in (0, 1, 2) and "Traceback" not in err, argv + tail
                if code:
                    assert out == "" and err.count("\n") == 1 and err.startswith(("error: ", "refused: ")), argv + tail
    assert time.perf_counter() - start < 5
