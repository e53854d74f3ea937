"""Batch command-line front end.

Every verb maps to exactly one library operation; no mathematics lives
here.  A verb, and each mode of witt and periodic-locus, takes only the
flags it reads.  Exit codes: 0 success, 1 malformed input, 2 typed
mathematical refusal.  JSON and CSV outputs are byte-stable for fixed
inputs; text is for humans and carries no stability guarantee.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from . import lambdapoly, modelcheck, rayclass, witt
from .errors import BoundExceededError, DensityRequiredError, InputError, ModelRefusedError
from .intlinalg import divisors
from .quadfield import QuadField, QuadIdeal
from .rayclass import Cycle, PrimeSupport


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
        if str(exc).startswith("Exceeds the limit"):  # Python 3.11+'s digit limit
            raise InputError(f"{what} is over Python's limit of {sys.get_int_max_str_digits()} digits, got {shown}") from None
        raise InputError(f"{what} must be an integer, got {shown}") from None


def _field_of(text: str) -> QuadField | None:
    if text in ("Q", "q"):
        return None
    if text.startswith("d:"):
        return QuadField(_int(text[2:], "the radicand"))
    raise InputError(f"unknown field {text!r}; use Q or d:-1")


def _emit(args, data: dict, text: str, csv_rows: list[list] | None = None) -> str:
    if args.output == "json":
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output == "csv":
        rows = csv_rows if csv_rows is not None else [[k, v] for k, v in sorted(data.items())]
        return "\n".join(",".join(str(x) for x in r) for r in rows) + "\n"
    return text + "\n"


def _parse_cycle(args) -> Cycle:
    return Cycle.parse(args.cycle, _field_of(args.field))


def _parse_ideals(args, field: QuadField | None) -> tuple:
    """The --a and --b ideals: positive integers over Q, triples otherwise."""
    if field is None:
        return _int(args.a, "--a"), _int(args.b, "--b")
    return QuadIdeal.parse(field, args.a), QuadIdeal.parse(field, args.b)


def _cmd_dr_table(args) -> str:
    dr = rayclass.dr_monoid(_parse_cycle(args), PrimeSupport.parse(args.support))
    data = dr.to_json()
    table = data["table"]
    rows = "\n".join(" ".join(f"{x:3d}" for x in row) for row in table) if args.output == "text" else ""  # printed only as text
    return _emit(args, data, f"ray class monoid of conductor {args.cycle}: {dr.size} elements\n{rows}", csv_rows=table)


def _cmd_dr_mul(args) -> str:
    field = _field_of(args.field)
    dr = rayclass.dr_monoid(_parse_cycle(args), PrimeSupport.parse(args.support))
    a, b = _parse_ideals(args, field)
    ia, ib = dr.class_of_ideal(a), dr.class_of_ideal(b)
    k = dr.mul(ia, ib)
    data = {"a_class": ia, "b_class": ib, "product_class": k, "product_rep": str(dr.reps[k])}
    return _emit(args, data, f"[{args.a}]*[{args.b}] = class {k} (representative {dr.reps[k]})")


def _cmd_f_equiv(args) -> str:
    field = _field_of(args.field)
    cyc = _parse_cycle(args)
    sup = PrimeSupport.parse(args.support)
    a, b = _parse_ideals(args, field)
    r1 = rayclass.f_equiv(a, b, cyc, sup)
    r2 = rayclass.f_equiv_generator(a, b, cyc, sup)
    if r1 != r2:
        raise AssertionError("the two equivalence routes disagree (please report)")
    data = {"equivalent": r1}
    return _emit(args, data, "true" if r1 else "false")


def _cmd_ray_class(args) -> str:
    cl = rayclass.ray_class_group(_parse_cycle(args), PrimeSupport.parse(args.support))
    data = {"order": cl.order, "reps": [str(r) for r in cl.reps], "table": cl.table, "is_full": cl.is_full}
    return _emit(args, data, f"ray class group of conductor {args.cycle}: order {cl.order}", csv_rows=cl.table)


def _cmd_model_check(args) -> str:
    with open(args.input) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{args.input} is not valid JSON: {exc}") from None
    exists, f0, r, conductors = modelcheck.model_check(modelcheck.FiniteIdSet.from_json(data), args.cycle)
    conductors = {str(d): str(c) for d, c in conductors.items()}
    data = {"exists": exists, "minimal_cycle": None if f0 is None else str(f0), "r": r, "conductors": conductors}
    return _emit(args, data, f"exists: {exists}; minimal cycle: {f0}; r = {r}")


def _cmd_chebyshev(args) -> str:
    p = lambdapoly.chebyshev_psi(args.n)
    if args.mod is not None:
        if args.mod < 1:
            raise InputError("--mod must be a positive integer")
        p = p.mod_coeffs(args.mod)
    data = {"n": args.n, "coefficients": list(p.coeffs)}
    return _emit(args, data, str(p))


def _cmd_periodic_locus(args) -> str:
    if args.family == "chebyshev":
        rep = lambdapoly.chebyshev_image_lattice(args.n)
        return _emit(args, rep.to_json(), f"Q = {rep.generator}; cokernel order {rep.cokernel_order}")
    if args.cycle is not None and args.n is not None:
        raise InputError("the toric family takes --cycle or --n, not both")
    if args.cycle is None and args.n is None:
        raise InputError("the toric family needs --cycle or --n")
    cyc = Cycle(None, args.n, False) if args.cycle is None else Cycle.parse(args.cycle)
    m = lambdapoly.gm_periodic_exponent(cyc, PrimeSupport.parse("all" if args.support is None else args.support))
    rep = lambdapoly.PeriodicLocusReport(cyc, "toric", m, None, None)
    return _emit(args, rep.to_json(), f"periodic locus is the {rep.generator}-torsion")


def _parse_ring(text: str) -> witt.CoeffRing:
    if text in ("Z", "z", "integers"):
        return witt.INTEGERS
    # a monic binomial like "x^4-1"
    m = re.fullmatch(r"x\^(\d+)-1", text.replace(" ", ""))
    if not m:
        raise InputError("ring must be Z or x^k-1")
    return witt.binomial_quotient_ring(int(m.group(1)))


def _parse_vector(ring: witt.CoeffRing, trunc: str | None, text: str) -> tuple[witt.TruncationSet, dict[int, tuple]]:
    """The truncation set of a div:N or upto:N spec and the components on
    it.  The component count is checked against the size the spec implies
    (d(N) or N) before the set is built."""
    parts = text.split(";") if ring.rank > 1 else text.split(",")
    kind, _, bound = ("div:6" if trunc is None else trunc).partition(":")
    if kind not in ("div", "upto"):
        raise InputError("truncation must look like div:6 or upto:8")
    n = _int(bound, "the truncation bound")
    if n < 1:
        raise InputError(f"the truncation bound must be at least 1, got {n}")
    if kind == "div":
        make, size = witt.TruncationSet.divisors_of, len(divisors(n))
    else:
        make, size = witt.TruncationSet.upto, n
    if len(parts) != size:
        raise InputError(f"expected {size} components for the truncation set")
    trunc_set = make(n)
    out = {}
    for a, part in zip(trunc_set.sorted(), parts):
        if ring.rank == 1:
            out[a] = (_int(part, "a component"),)
        else:
            vec = tuple(_int(x, "a component entry") for x in part.split(","))
            if len(vec) != ring.rank:
                raise InputError("component has wrong length for the ring")
            out[a] = vec
    return trunc_set, out


def _cmd_witt(args) -> str:
    ring = _parse_ring("Z" if args.ring is None else args.ring)
    if args.witt_cmd == "convert":
        if args.ghost is not None and args.witt is not None:
            raise InputError("convert takes --ghost or --witt, not both")
        if args.ghost is None and args.witt is None:
            raise InputError("convert needs --ghost or --witt")
        trunc, comps = _parse_vector(ring, args.trunc, args.witt if args.ghost is None else args.ghost)
        if args.ghost is not None:
            coords, flags = witt.witt_from_ghost(witt.GhostVector.make(ring, trunc, comps))
        else:
            g = witt.ghost_from_witt(witt.WittCoords.make(ring, trunc, comps))
        # the answer is valid however many digits it has, so Python's limit on
        # printing an int (3.11+; 0 is none) is lifted for its text only
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            if args.ghost is not None:
                data = {
                    "coordinates": {str(d): [str(c) for c in coords.coord(d)] for d in trunc.sorted()},
                    "integral": {str(d): flags[d] for d in trunc.sorted()},
                }
                text = "; ".join(f"w_{d}={coords.coord(d)}" for d in trunc.sorted())
            else:
                data = {"ghost": {str(a): list(g.component(a)) for a in trunc.sorted()}}
                text = "; ".join(f"g_{a}={g.component(a)}" for a in trunc.sorted())
            return _emit(args, data, text)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    if args.witt_cmd == "check":
        ok = witt.dwork_check(witt.GhostVector.make(ring, *_parse_vector(ring, args.trunc, args.ghost)))
        return _emit(args, {"witt_vector": ok}, "true" if ok else "false")
    bound = 64 if args.bound is None else args.bound
    comparison = witt.ray_class_algebra_witt_iso_check(args.n, bound)
    # the lattice ring defaults to the size-n group ring of the comparison,
    # whose lattice is reused; pass --ring Z for scalar coefficients
    lattice = comparison.lattice
    if args.ring is not None and ring != lattice.ring:
        lattice = witt.periodic_witt_lattice(args.n, ring, bound)
    data = {
        "lattice_basis": [list(r) for r in lattice.basis],
        "class_reps": list(lattice.class_reps),
        "stable": lattice.stable,
        "comparison": comparison.to_json(),
    }
    text = f"rank {lattice.rank}, stable {lattice.stable}, comparison {comparison.verdict}"
    return _emit(args, data, text)


def _cmd_cotangent(args) -> str:
    d = lambdapoly.cyclotomic_cotangent_dim(args.a, args.q)
    return _emit(args, {"a": args.a, "q": args.q, "dimension": d}, str(d))


# The verb table: each verb, its handler and the flags its handler reads,
# the two output flags included; any other flag is unknown.  A flag is
# (name, type, required, choices, default): type is str, int (read by _int)
# or None for the one switch, --json, which is --output json.  witt's
# subcommand is the one positional, named without dashes.
_OUTPUT = ("--output", str, False, ("json", "csv", "text"), "text")
_COMMON = (_OUTPUT, ("--json", None, False, None, "json"))
_CYCLE = (("--cycle", str, True, None, None), ("--field", str, False, None, "Q"), ("--support", str, False, None, "all"))
_IDEALS = (*_CYCLE, ("--a", str, True, None, None), ("--b", str, True, None, None))
_VERBS = (
    ("dr-table", _cmd_dr_table, _CYCLE),
    ("dr-mul", _cmd_dr_mul, _IDEALS),
    ("f-equiv", _cmd_f_equiv, _IDEALS),
    ("ray-class", _cmd_ray_class, _CYCLE),
    ("model-check", _cmd_model_check, (("--input", str, True, None, None), ("--cycle", str, False, None, None))),
    ("chebyshev", _cmd_chebyshev, (("--n", int, True, None, None), ("--mod", int, False, None, None))),
    ("periodic-locus", _cmd_periodic_locus, (("--family", str, True, ("chebyshev", "toric"), None), ("--n", int, False, None, None),
                                             ("--cycle", str, False, None, None), ("--support", str, False, None, None))),
    ("witt", _cmd_witt, (("witt_cmd", str, True, ("convert", "check", "periodic"), None),
                         ("--ring", str, False, None, None), ("--ghost", str, False, None, None), ("--witt", str, False, None, None),
                         ("--trunc", str, False, None, None), ("--n", int, False, None, None), ("--bound", int, False, None, None))),
    ("cotangent", _cmd_cotangent, (("--a", int, True, None, None), ("--q", int, True, None, None))),
)
# The modes, witt's subcommand and periodic-locus's family: (the verb's
# attribute naming the mode, the mode, the flags it reads, the ones of them
# it needs).  A mode takes none of its verb's other flags.  Absent, --ring
# is Z, --trunc div:6, --bound 64 and --support all.
_MODES = (
    ("witt_cmd", "convert", ("--ring", "--trunc", "--ghost", "--witt"), ()),
    ("witt_cmd", "check", ("--ring", "--trunc", "--ghost"), ("--ghost",)),
    ("witt_cmd", "periodic", ("--ring", "--bound", "--n"), ("--n",)),
    ("family", "chebyshev", ("--n",), ("--n",)),
    ("family", "toric", ("--cycle", "--n", "--support"), ()),
)
_HELP = ("-h", "--h", "--he", "--hel", "--help")  # --help and the prefixes that name it alone


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The handler and values of one argv, or None for -h or --help.
    ``--flag value`` takes the next token as the value, whatever it looks
    like; a flag may be cut to a prefix no other flag of its verb has; the
    last of repeats wins; each value is checked as it is read."""
    if not argv:
        raise InputError("a verb is required")
    if argv[0] in _HELP:
        return None
    for verb, fn, own in _VERBS:
        if verb == argv[0]:
            break
    else:
        raise InputError(f"unknown verb {argv[0]!r}; use one of {', '.join(v for v, _, _ in _VERBS)}")
    specs = own + _COMMON
    positional = next((s for s in specs if s[0][0] != "-"), None)
    values = {"command": verb, "fn": fn, **{s[0].lstrip("-"): s[4] for s in specs if s[1] is not None}}
    seen, at, i = {None}, None, 1  # the specs read; a verb without a positional (None) has read it
    while i < len(argv):
        token, i = argv[i], i + 1
        if token == "--":  # as in argparse: only witt's subcommand may stand just before or just after it
            if at == i - 2 and i == len(argv):
                break
            if positional in seen or i != len(argv) - 1:
                raise InputError("unrecognized argument '--'")
            spec, text, i = positional, argv[i], i + 1
        elif token in _HELP:
            return None
        elif token.startswith("--"):
            name, eq, text = token.partition("=")
            hits = [s for s in specs if s[0] == name] or [s for s in specs if s[0].startswith(name)]
            if len(hits) != 1:
                raise InputError(f"{'ambiguous' if hits else 'unknown'} flag {name}")
            spec = hits[0]
            if spec[1] is None:  # the switch
                if eq:
                    raise InputError(f"{name} takes no value")
                spec, text = _OUTPUT, spec[4]
            elif not eq:
                if i == len(argv):
                    raise InputError(f"{name} needs a value")
                text, i = argv[i], i + 1
        elif positional not in seen:
            spec, text, at = positional, token, i - 1
        else:
            raise InputError(f"unrecognized argument {token!r}")
        name, kind, _, choices, _ = spec
        if choices and text not in choices:
            raise InputError(f"{name} must be one of {', '.join(choices)}, got {text!r}")
        values[name.lstrip("-")] = text if kind is str else _int(text, name)
        seen.add(spec)
    missing = [s[0] for s in specs if s[2] and s not in seen]
    if missing:
        raise InputError(f"{verb} needs {', '.join(missing)}")
    return SimpleNamespace(**values)


def _check_mode(args: SimpleNamespace | None) -> None:
    """Refuse a flag the mode of witt or periodic-locus does not read, then
    one it needs that is absent; an absent flag is None."""
    for key, mode, reads, needs in _MODES:
        if getattr(args, key, None) == mode:
            given = [f"--{k}" for k, v in vars(args).items() if v is not None and k not in ("command", "fn", "output", key)]
            for word, flags in (("takes no", [f for f in given if f not in reads]), ("needs", [f for f in needs if f not in given])):
                if flags:
                    raise InputError(f"{args.command} {mode} {word} {', '.join(flags)}")


def _usage() -> str:
    def shown(specs):
        for name, kind, required, choices, _ in specs:
            value = "{" + ",".join(choices) + "}" if choices else name.lstrip("-").upper()
            word = name if kind is None else value if name[0] != "-" else f"{name} {value}"
            yield word if required else f"[{word}]"
    verbs = "".join(f"  {verb} {' '.join(shown(own))}\n" for verb, _, own in _VERBS)
    return f"usage: lambda-forge VERB [FLAG VALUE | FLAG=VALUE]...\n\n{__doc__}\nverbs:\n{verbs}every verb also takes {' '.join(shown(_COMMON))}\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        _check_mode(args)
        sys.stdout.write(_usage() if args is None else args.fn(args))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DensityRequiredError, BoundExceededError, ModelRefusedError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
