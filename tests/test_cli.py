import io
import json
import sys

import pytest

from lambda_forge.cli import main


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


def test_frob_flag_validation():
    code, _ = run_cli(["witt", "check", "--ring", "x^4-1", "--frob", "id", "--ghost", "0;0;0;0", "--trunc", "div:4"])
    assert code == 1


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
