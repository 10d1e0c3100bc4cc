"""Span tracing of closedpoly's public functions, installed from outside.

Each public function is wrapped at every module binding that calls it: a
name imported with ``from .x import y`` is a separate binding, so wrapping
only the defining module would miss those calls.  Each binding gets its own
wrapper around the object it holds, all under the layer's name; a call goes
through one binding, so it is counted once.

Self time comes from a span stack: a span's self time is its duration minus
the time its child spans cover.  Spans are kept in memory and written out at
the end; the poly-level operations are only aggregated into counters, which
keeps memory bounded however many products a run makes.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# layer name -> bindings, each "module:attribute" or "module:Class.attribute".
LAYERS = {
    "newton.v0_set": ["closedpoly.newton:v0_set"],
    "newton.realizing_weights": ["closedpoly.newton:realizing_weights",
                                 "closedpoly.cli:realizing_weights"],
    "newton.divisor_sequence": ["closedpoly.newton:divisor_sequence",
                                "closedpoly.decompose:divisor_sequence"],
    "newton.newton_summary": ["closedpoly.newton:newton_summary",
                              "closedpoly.cli:newton_summary"],
    "linprog.feasible_point": ["closedpoly.linprog:feasible_point",
                               "closedpoly.newton:feasible_point",
                               "closedpoly.monoid:feasible_point"],
    "decompose.generative": ["closedpoly.decompose:generative",
                             "closedpoly.cli:generative"],
    "decompose.attempt_divisor": ["closedpoly.decompose:attempt_divisor"],
    "orders.monomials_below": ["closedpoly.orders:monomials_below",
                               "closedpoly.decompose:monomials_below"],
    "orders.normalize": ["closedpoly.orders:normalize",
                         "closedpoly.decompose:normalize"],
    "poly.mul": ["closedpoly.poly:MultiPoly.__mul__", "closedpoly.poly:MultiPoly.__rmul__"],
    "poly.add": ["closedpoly.poly:MultiPoly.__add__", "closedpoly.poly:MultiPoly.__radd__"],
    "poly.compose_uni": ["closedpoly.poly:compose_uni", "closedpoly.decompose:compose_uni",
                         "closedpoly.family:compose_uni"],
    "family.factor_shift": ["closedpoly.family:factor_shift", "closedpoly.cli:factor_shift"],
    "family.rational_roots": ["closedpoly.family:rational_roots"],
    "monoid.saturation_generators": ["closedpoly.monoid:saturation_generators",
                                     "closedpoly.cli:saturation_generators"],
    "monoid.is_saturated": ["closedpoly.monoid:is_saturated", "closedpoly.cli:is_saturated"],
    "monoid.cone_member": ["closedpoly.monoid:cone_member"],
    "depend.jacobian_minors": ["closedpoly.depend:jacobian_minors",
                               "closedpoly.cli:jacobian_minors"],
    "parsing.parse_poly": ["closedpoly.parsing:parse_poly", "closedpoly.cli:parse_poly"],
    "parsing.render_poly": ["closedpoly.parsing:render_poly", "closedpoly.cli:render_poly"],
    "cli.main": ["closedpoly.cli:main"],
}


def resolve(binding: str):
    """(owner, attribute) of a "module:attr" or "module:Class.attr" binding;
    AttributeError if the library no longer has it."""
    module_name, attr = binding.split(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    if not present:
        raise AttributeError(f"binding {binding} of spans.LAYERS does not exist")
    return owner, attr


# Aggregated only: called too often to keep a span per call.
COUNTER_ONLY = {"poly.mul", "poly.add", "poly.compose_uni"}


class Tracer:
    """Span stack plus per-layer call counts, self times and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [name, start, time covered by children, span id]
        self.spans = []  # (span id, parent id, request id, name, start, end)
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.request = 0
        self._next_id = 0
        self._installed = []

    def enter(self, name: str):
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id]
        self.stack.append(frame)
        frame[1] = self.clock()

    def exit(self, keep: bool = True):
        end = self.clock()
        name, start, covered, span_id = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if keep:
            self.spans.append((span_id, parent[3] if parent else None, self.request,
                               name, start, end))

    def wrap(self, name: str, fn, hook=None):
        keep = name not in COUNTER_ONLY

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(keep)
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            self.exit(keep)
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return traced

    def install(self):
        """Wrap every binding in LAYERS, each around its own original, all
        under the layer's name.  A binding that does not exist is an error:
        skipping it would turn its metrics into silent zeros."""
        for name, bindings in LAYERS.items():
            for binding in bindings:
                owner, attr = resolve(binding)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, HOOKS.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["span_id", "parent_id", "request", "name", "start", "end"],
                "spans": self.spans,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counters": dict(self.counters),
            }, fh)


# -- counters measured at the layer boundaries ------------------------------


def _divisor_hook(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    from closedpoly.newton import multiplicity
    from closedpoly.orders import leading_term

    f, order = args[0], args[1]
    d = multiplicity(leading_term(f, order)[0])
    plain = sum(1 for k in range(2, d + 1) if d % k == 0)
    tracer.counters["divisors_plain"] += plain
    tracer.counters["divisors_removed"] += plain - len(result)


def _v0_hook(tracer, args, kwargs, result, exc):
    tracer.counters["support_points"] += len(args[0].terms)


def _lp_hook(tracer, args, kwargs, result, exc):
    n = args[0] if args else kwargs["n"]
    n_eq = len(kwargs.get("A_eq", args[1] if len(args) > 1 else ()))
    n_ge = len(kwargs.get("A_ge", args[3] if len(args) > 3 else ()))
    tracer.counters["tableau_cells"] += (n_eq + n_ge) * (n + n_ge)
    tracer.counters["lp_infeasible"] += exc is None and result is None


def _attempt_hook(tracer, args, kwargs, result, exc):
    tracer.counters["divisor_mismatch"] += exc is None and result is None


def _monomials_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counters["monomials"] += len(result)
    elif type(exc).__name__ == "MonomialCapExceeded":
        tracer.counters["cap_exceeded"] += 1


def _mul_hook(tracer, args, kwargs, result, exc):
    a, b = args
    tracer.counters["term_products"] += len(a.terms) * len(getattr(b, "terms", (0,)))


HOOKS = {
    "newton.divisor_sequence": _divisor_hook,
    "newton.v0_set": _v0_hook,
    "linprog.feasible_point": _lp_hook,
    "decompose.attempt_divisor": _attempt_hook,
    "orders.monomials_below": _monomials_hook,
    "poly.mul": _mul_hook,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, overhead_ratio: float) -> dict:
    """The per-layer metrics of one traced pass of traced_s wall seconds
    (units as in BENCHMARK.json)."""
    calls, self_s, c = tracer.calls, tracer.self_s, tracer.counters
    metrics = {}
    for name in ("newton.v0_set", "newton.realizing_weights", "linprog.feasible_point",
                 "decompose.generative", "decompose.attempt_divisor", "orders.monomials_below",
                 "poly.mul", "poly.add", "family.rational_roots",
                 "monoid.saturation_generators", "monoid.cone_member",
                 "parsing.parse_poly", "cli.main"):
        metrics[f"{name}.calls"] = calls[name]
    for name in ("newton.v0_set", "newton.realizing_weights", "newton.divisor_sequence",
                 "linprog.feasible_point", "decompose.generative", "decompose.attempt_divisor",
                 "orders.monomials_below", "orders.normalize", "poly.mul", "poly.add",
                 "poly.compose_uni", "family.factor_shift", "family.rational_roots",
                 "monoid.saturation_generators", "monoid.is_saturated", "monoid.cone_member",
                 "depend.jacobian_minors", "parsing.parse_poly", "parsing.render_poly",
                 "cli.main"):
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["newton.support_points"] = c["support_points"]
    metrics["newton.prune_ratio"] = _ratio(c["divisors_removed"], c["divisors_plain"])
    metrics["linprog.tableau_cells"] = c["tableau_cells"]
    metrics["linprog.infeasible_ratio"] = _ratio(c["lp_infeasible"], calls["linprog.feasible_point"])
    metrics["decompose.mismatch_ratio"] = _ratio(c["divisor_mismatch"], calls["decompose.attempt_divisor"])
    metrics["orders.monomials_below.monomials"] = c["monomials"]
    metrics["orders.cap_exceeded"] = c["cap_exceeded"]
    metrics["poly.mul.term_products"] = c["term_products"]
    metrics["trace.overhead_ratio"] = overhead_ratio
    metrics["trace.newton_lp_share"] = _ratio(
        self_s["newton.v0_set"] + self_s["newton.realizing_weights"]
        + self_s["linprog.feasible_point"], traced_s)
    return metrics
