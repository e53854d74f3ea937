"""Per-layer spans for the traced benchmark run.

The tracer times calls into each lambda_forge layer from outside the
package: it wraps the public functions and methods of every layer module
and rebinds the wrapper wherever a lambda_forge module namespace holds the
original function object (so ``quadfield.hnf_rows`` and
``intlinalg.hnf_rows`` both go through the same wrapper).  Nothing in the
package is edited on disk, and untraced sessions never install the tracer.

Each call records a span: name, start, end, parent span and the id of the
benchmark operation that caused it.  Spans stay in memory in flat arrays
and are written out when the session ends; past ``max_spans`` they are no
longer stored, but every call still counts in the per-name aggregates.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

LAYERS = ("intlinalg", "quadfield", "rayclass", "modelcheck", "lambdapoly", "witt", "cli")

# Private functions that another layer calls directly; they are layer
# boundaries even though their names are private.
PRIVATE_ENTRY_POINTS = {"modelcheck": {"_subset_image"}}

# Constructors whose calls count builds of the cached objects.
WRAPPED_INITS = {("rayclass", "RayClassGroup"), ("rayclass", "DRMonoid")}

# Tiny accessors called from the inner loops of other functions.  A span
# around each would cost more than the call and bury the real boundaries,
# so their time stays in the caller's self time.
LEAF_ACCESSORS = {
    "quadfield.QuadInt.norm",
    "quadfield.QuadInt.scale",
    "quadfield.QuadInt.conj",
    "quadfield.QuadInt.is_zero",
    "quadfield.QuadIdeal.norm",
    "quadfield.QuadIdeal.basis",
    "rayclass.Cycle.norm",
    "rayclass.PrimeSupport.allows_prime",
    "rayclass.PrimeSupport.supports_int",
    "intlinalg.Factorization.primes",
    "witt.CoeffRing.zero",
    "witt.CoeffRing.one",
    "witt.CoeffRing.from_int",
    "witt.CoeffRing.add",
    "witt.CoeffRing.sub",
    "witt.CoeffRing.neg",
    "witt.CoeffRing.scale",
    "witt.CoeffRing.mul",
    "witt.CoeffRing.pow",
    "witt.CoeffRing.divisible",
    "witt.CoeffRing.exact_div",
    "witt.CoeffRing.apply_frob",
    "witt.TruncationSet.sorted",
    "witt.GhostVector.component",
    "witt.WittCoords.coord",
    "lambdapoly.IntPoly.lead",
    "lambdapoly.IntPoly.is_zero",
    "lambdapoly.IntPoly.scale",
    "lambdapoly.GroupRingElt.augmentation",
}


def _is_plain_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    """Wraps the layer boundaries and accumulates spans and aggregates."""

    def __init__(self, max_spans: int = 1 << 62):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.errors: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[list[int]] = []  # open spans: [span index, child ns]
        self.op = -1

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        k = self._name_index(name)
        clock = time.perf_counter_ns
        stack = self.stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        tracer = self
        max_spans = self.max_spans

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            if idx < max_spans:
                span_name.append(k)
                span_parent.append(stack[-1][0] if stack else -1)
                span_op.append(tracer.op)
                span_start.append(0)
                span_end.append(0)
            else:
                idx = -1
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[k] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if idx >= 0:
                    span_start[idx] = start
                    span_end[idx] = end
                calls[k] += 1
                self_ns[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        """Wrap every layer boundary of the imported lambda_forge modules."""
        replaced: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"lambda_forge.{layer}")
            if mod is None:
                continue
            extra = PRIVATE_ENTRY_POINTS.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif (
                    _is_plain_function(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "lambda_forge" and not modname.startswith("lambda_forge."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls: type):
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in LEAF_ACCESSORS:
                continue
            if attr.startswith("_") and not (attr == "__init__" and (layer, cls.__name__) in WRAPPED_INITS):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self.wrap(name, raw))

    def aggregates(self) -> dict[str, list[int]]:
        """name -> [calls, self ns, errors] for every span name seen."""
        return {
            n: [self.calls[k], self.self_ns[k], self.errors[k]]
            for k, n in enumerate(self.names)
            if self.calls[k]
        }

    def span_rows(self):
        """Stored spans as (op, span, parent, name, start ns, end ns)."""
        names = self.names
        for i in range(len(self.span_name)):
            yield (
                self.span_op[i],
                i,
                self.span_parent[i],
                names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
            )


# Metric groups: "<layer>.<group>" -> the span names it sums.
GROUPS = {
    "intlinalg.factor": ("intlinalg.factor",),
    "intlinalg.is_prime": ("intlinalg.is_prime",),
    "intlinalg.echelon": (
        "intlinalg.hnf",
        "intlinalg.hnf_rows",
        "intlinalg.in_row_span",
        "intlinalg.lattice_rank",
        "intlinalg.lattice_index",
        "intlinalg.left_kernel",
        "intlinalg.smith_invariants",
    ),
    "quadfield.ideal_arith": (
        "quadfield.ideal_from_module",
        "quadfield.principal_ideal",
        "quadfield.ideal_from_int",
        "quadfield.ideal_mul",
        "quadfield.ideal_gcd",
        "quadfield.ideal_div",
        "quadfield.ideal_divides",
        "quadfield.ideal_valuation",
        "quadfield.ideal_factor",
        "quadfield.ideal_divisors",
        "quadfield.QuadIdeal.contains",
        "quadfield.QuadIdeal.conj",
        "quadfield.QuadIdeal.residues",
        "quadfield.QuadIdeal.reduce",
    ),
    "quadfield.norm_solutions": ("quadfield.norm_solutions",),
    "quadfield.is_principal": ("quadfield.is_principal",),
    "rayclass.f_equiv": ("rayclass.f_equiv",),
    "rayclass.f_equiv_generator": ("rayclass.f_equiv_generator",),
    "witt.transform": ("witt.ghost_from_witt", "witt.witt_from_ghost", "witt.teichmuller"),
    "witt.dwork_check": ("witt.dwork_check",),
    "witt.lattice": (
        "witt.periodic_witt_lattice",
        "witt.ray_class_algebra_witt_iso_check",
        "witt.group_ring_ghost_rows",
        "witt.PeriodicWittLattice.contains",
    ),
}

# (requests, builds) span names of the two cached constructions.
REUSE = {
    "rayclass.group": ("rayclass.ray_class_group", "rayclass.RayClassGroup.__init__"),
    "rayclass.monoid": ("rayclass.dr_monoid", "rayclass.DRMonoid.__init__"),
}


def layer_metrics(aggregates: dict[str, list[int]], busy_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from span aggregates; ``busy_s`` is the summed
    duration of the traced operations, the blocking path of a closed loop
    with one client."""
    out: dict[str, tuple[float, str]] = {}
    totals = {layer: [0, 0, 0] for layer in LAYERS}
    for name, vals in aggregates.items():
        acc = totals[name.split(".")[0]]
        for i, v in enumerate(vals):
            acc[i] += v
    covered_s = 0.0
    for layer, (calls, self_ns, errors) in totals.items():
        out[f"{layer}.calls"] = (float(calls), "count")
        out[f"{layer}.self_s"] = (self_ns / 1e9, "s")
        out[f"{layer}.errors"] = (float(errors), "count")
        out[f"{layer}.self_share"] = (self_ns / 1e9 / busy_s, "ratio")
        covered_s += self_ns / 1e9
    out["harness.self_share"] = (1 - covered_s / busy_s, "ratio")
    zero = (0, 0, 0)
    for group, names in GROUPS.items():
        out[f"{group}.calls"] = (float(sum(aggregates.get(n, zero)[0] for n in names)), "count")
        out[f"{group}.self_s"] = (sum(aggregates.get(n, zero)[1] for n in names) / 1e9, "s")
    for prefix, (request_name, build_name) in REUSE.items():
        requests = aggregates.get(request_name, zero)[0]
        builds = aggregates.get(build_name, zero)[0]
        out[f"{prefix}_requests"] = (float(requests), "count")
        out[f"{prefix}_builds"] = (float(builds), "count")
        out[f"{prefix}_reuse"] = (1 - builds / requests if requests else 0.0, "ratio")
    return out


def merge_aggregates(into: dict[str, list[int]], more: dict[str, list[int]]):
    for name, vals in more.items():
        cur = into.setdefault(name, [0, 0, 0])
        for i, v in enumerate(vals):
            cur[i] += v
