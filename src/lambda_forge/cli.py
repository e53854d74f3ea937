"""Batch command-line front end.

Every verb maps to exactly one library operation; no mathematics lives
here.  Exit codes: 0 success, 1 malformed input, 2 typed mathematical
refusal.  JSON and CSV outputs are byte-stable for fixed inputs; text is
for humans and carries no stability guarantee.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lambdapoly, modelcheck, rayclass, witt
from .errors import BoundExceededError, DensityRequiredError, InputError, ModelRefusedError
from .quadfield import QuadField
from .rayclass import Cycle, PrimeSupport


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; malformed input is 1
        raise InputError(message)


def _field_of(text: str) -> QuadField | None:
    if text in ("Q", "q"):
        return None
    if text.startswith("d:"):
        return QuadField(int(text[2:]))
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


def _cmd_dr_table(args) -> str:
    dr = rayclass.dr_monoid(_parse_cycle(args), PrimeSupport.parse(args.support))
    data = dr.to_json()
    table = data["table"]
    text = f"ray class monoid of conductor {args.cycle}: {dr.size} elements\n" + "\n".join(
        " ".join(f"{x:3d}" for x in row) for row in table
    )
    return _emit(args, data, text, csv_rows=table)


def _cmd_dr_mul(args) -> str:
    field = _field_of(args.field)
    dr = rayclass.dr_monoid(_parse_cycle(args), PrimeSupport.parse(args.support))
    if field is None:
        ia, ib = dr.class_of_ideal(int(args.a)), dr.class_of_ideal(int(args.b))
    else:
        from .quadfield import QuadIdeal

        ia = dr.class_of_ideal(QuadIdeal.parse(field, args.a))
        ib = dr.class_of_ideal(QuadIdeal.parse(field, args.b))
    k = dr.mul(ia, ib)
    data = {"a_class": ia, "b_class": ib, "product_class": k, "product_rep": str(dr.reps[k])}
    return _emit(args, data, f"[{args.a}]*[{args.b}] = class {k} (representative {dr.reps[k]})")


def _cmd_f_equiv(args) -> str:
    field = _field_of(args.field)
    cyc = _parse_cycle(args)
    sup = PrimeSupport.parse(args.support)
    if field is None:
        a, b = int(args.a), int(args.b)
    else:
        from .quadfield import QuadIdeal

        a, b = QuadIdeal.parse(field, args.a), QuadIdeal.parse(field, args.b)
    r1 = rayclass.f_equiv(a, b, cyc, sup)
    r2 = rayclass.f_equiv_generator(a, b, cyc, sup)
    if r1 != r2:
        raise AssertionError("the two equivalence routes disagree (please report)")
    data = {"equivalent": r1}
    return _emit(args, data, "true" if r1 else "false")


def _cmd_ray_class(args) -> str:
    cl = rayclass.ray_class_group(_parse_cycle(args), PrimeSupport.parse(args.support))
    data = {
        "order": cl.order,
        "reps": [str(r) for r in cl.reps],
        "table": [list(row) for row in cl.table],
        "is_full": cl.is_full,
    }
    text = f"ray class group of conductor {args.cycle}: order {cl.order}"
    return _emit(args, data, text, csv_rows=[list(row) for row in cl.table])


def _cmd_model_check(args) -> str:
    from .intlinalg import divisors

    with open(args.input) as fh:
        s = modelcheck.FiniteIdSet.from_json(json.load(fh))
    r = modelcheck.compute_r(s)
    conductors = {
        str(d): str(modelcheck.conductor(s, modelcheck._subset_image(s, d))) for d in divisors(r)
    }
    exists_any = modelcheck.has_integral_model(s)
    minimal = str(modelcheck.minimal_cycle(s)) if exists_any else None
    if args.cycle:
        cyc = Cycle.parse(args.cycle)
        exists = modelcheck.decide_model(s, cyc)
    else:
        exists = exists_any
    data = {"exists": exists, "minimal_cycle": minimal, "r": r, "conductors": conductors}
    text = f"exists: {exists}; minimal cycle: {minimal}; r = {r}"
    return _emit(args, data, text)


def _cmd_chebyshev(args) -> str:
    p = lambdapoly.chebyshev_psi(args.n)
    if args.mod:
        p = p.mod_coeffs(args.mod)
    data = {"n": args.n, "coefficients": list(p.coeffs)}
    return _emit(args, data, str(p))


def _cmd_periodic_locus(args) -> str:
    if args.family == "chebyshev":
        rep = lambdapoly.chebyshev_image_lattice(args.n)
        data = rep.to_json()
        text = f"Q = {rep.generator}; cokernel order {rep.cokernel_order}"
        return _emit(args, data, text)
    if args.family == "toric":
        cyc = Cycle.parse(args.cycle) if args.cycle else Cycle(None, args.n, False)
        m = lambdapoly.gm_periodic_exponent(cyc, PrimeSupport.parse(args.support), jobs=args.jobs)
        rep = lambdapoly.PeriodicLocusReport(cyc, "toric", m, None, None)
        data = rep.to_json()
        return _emit(args, data, f"periodic locus is the {rep.generator}-torsion", None)
    raise InputError(f"unknown family {args.family!r}")


def _parse_ring(text: str) -> witt.CoeffRing:
    if text in ("Z", "z", "integers"):
        return witt.INTEGERS
    # a monic binomial like "x^4-1"
    import re

    m = re.fullmatch(r"x\^(\d+)-1", text.replace(" ", ""))
    if not m:
        raise InputError("ring must be Z or x^k-1")
    return witt.binomial_quotient_ring(int(m.group(1)))


def _parse_trunc(text: str) -> witt.TruncationSet:
    if text.startswith("div:"):
        return witt.TruncationSet.divisors_of(int(text[4:]))
    if text.startswith("upto:"):
        return witt.TruncationSet.upto(int(text[5:]))
    raise InputError("truncation must look like div:6 or upto:8")


def _parse_components(ring: witt.CoeffRing, text: str, trunc: witt.TruncationSet) -> dict[int, tuple]:
    parts = text.split(";") if ring.rank > 1 else text.split(",")
    idx = trunc.sorted()
    if len(parts) != len(idx):
        raise InputError(f"expected {len(idx)} components for the truncation set")
    out = {}
    for a, part in zip(idx, parts):
        if ring.rank == 1:
            out[a] = (int(part),)
        else:
            vec = tuple(int(x) for x in part.split(","))
            if len(vec) != ring.rank:
                raise InputError("component has wrong length for the ring")
            out[a] = vec
    return out


def _cmd_witt(args) -> str:
    ring = _parse_ring(args.ring or "Z")
    if args.frob not in ("p:x^p", "id", "identity"):
        raise InputError("frobenius rule must be p:x^p or identity")
    if ring.kind == "quotient-poly" and args.frob in ("id", "identity"):
        raise InputError("identity lifts are only valid over the integers")
    if args.witt_cmd == "convert":
        trunc = _parse_trunc(args.trunc)
        if args.ghost:
            g = witt.GhostVector.make(ring, trunc, _parse_components(ring, args.ghost, trunc))
            coords, flags = witt.witt_from_ghost(g)
            data = {
                "coordinates": {str(d): [str(c) for c in coords.coord(d)] for d in trunc.sorted()},
                "integral": {str(d): flags[d] for d in trunc.sorted()},
            }
            text = "; ".join(f"w_{d}={coords.coord(d)}" for d in trunc.sorted())
        elif args.witt:
            w = witt.WittCoords.make(ring, trunc, _parse_components(ring, args.witt, trunc))
            g = witt.ghost_from_witt(w)
            data = {"ghost": {str(a): list(g.component(a)) for a in trunc.sorted()}}
            text = "; ".join(f"g_{a}={g.component(a)}" for a in trunc.sorted())
        else:
            raise InputError("convert needs --ghost or --witt")
        return _emit(args, data, text)
    if args.witt_cmd == "check":
        trunc = _parse_trunc(args.trunc)
        g = witt.GhostVector.make(ring, trunc, _parse_components(ring, args.ghost, trunc))
        ok = witt.dwork_check(g)
        return _emit(args, {"witt_vector": ok}, "true" if ok else "false")
    if args.witt_cmd == "periodic":
        if not args.n:
            raise InputError("witt periodic needs --n")
        comparison = witt.ray_class_algebra_witt_iso_check(args.n, args.bound)
        # the lattice ring defaults to the size-n group ring of the
        # comparison, whose lattice is reused; pass --ring Z for scalar
        # coefficients
        lattice = comparison.lattice
        if args.ring is not None and ring != lattice.ring:
            lattice = witt.periodic_witt_lattice(args.n, ring, args.bound)
        data = {
            "lattice_basis": [list(r) for r in lattice.basis],
            "class_reps": list(lattice.class_reps),
            "stable": lattice.stable,
            "comparison": comparison.to_json(),
        }
        text = f"rank {lattice.rank}, stable {lattice.stable}, comparison {comparison.verdict}"
        return _emit(args, data, text)
    raise InputError(f"unknown witt subcommand {args.witt_cmd!r}")


def _cmd_cotangent(args) -> str:
    d = lambdapoly.cyclotomic_cotangent_dim(args.a, args.q)
    return _emit(args, {"a": args.a, "q": args.q, "dimension": d}, str(d))


def build_parser() -> _Parser:
    p = _Parser(prog="lambda-forge", description=__doc__)
    p.add_argument("--jobs", type=int, default=1, help="shard embarrassingly parallel scans")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--field", default="Q")
        sp.add_argument("--support", default="all")
        sp.add_argument("--output", choices=["json", "csv", "text"], default="text")
        sp.add_argument("--json", dest="output", action="store_const", const="json")

    sp = sub.add_parser("dr-table")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.set_defaults(fn=_cmd_dr_table)

    sp = sub.add_parser("dr-mul")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(fn=_cmd_dr_mul)

    sp = sub.add_parser("f-equiv")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(fn=_cmd_f_equiv)

    sp = sub.add_parser("ray-class")
    common(sp)
    sp.add_argument("--cycle", required=True)
    sp.set_defaults(fn=_cmd_ray_class)

    sp = sub.add_parser("model-check")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--cycle")
    sp.set_defaults(fn=_cmd_model_check)

    sp = sub.add_parser("chebyshev")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mod", type=int)
    sp.set_defaults(fn=_cmd_chebyshev)

    sp = sub.add_parser("periodic-locus")
    common(sp)
    sp.add_argument("--family", required=True, choices=["chebyshev", "toric"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--cycle")
    sp.set_defaults(fn=_cmd_periodic_locus)

    sp = sub.add_parser("witt")
    common(sp)
    sp.add_argument("witt_cmd", choices=["convert", "check", "periodic"])
    sp.add_argument("--ring", default=None)
    sp.add_argument("--frob", default="p:x^p", help="lift rule; x^k-1 rings use the power rule")
    sp.add_argument("--ghost")
    sp.add_argument("--witt", dest="witt")
    sp.add_argument("--trunc", default="div:6")
    sp.add_argument("--n", type=int)
    sp.add_argument("--bound", type=int, default=64)
    sp.set_defaults(fn=_cmd_witt)

    sp = sub.add_parser("cotangent")
    common(sp)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=_cmd_cotangent)

    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        sys.stdout.write(args.fn(args))
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
