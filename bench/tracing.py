"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each traced function at every binding the program
calls through: the modules copy names into each other with `from ... import`,
so every `bicomm` module attribute that is the original function object is
replaced, and methods are replaced on their class.  Each call records one
span (name, start, end, parent) in flat in-memory arrays; nothing is written
until the pass ends.  Per-layer metrics are sums of span self times and
counts, where a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" for methods.
TRACED = [
    ("cli", "main"),
    ("group_action", "load_group"),
    ("group_action", "group_closure"),
    ("group_action", "act_bulk"),
    ("group_action", "act_linear"),
    ("group_action", "reynolds"),
    ("hilbert", "char_det"),
    ("hilbert", "molien_classic"),
    ("hilbert", "dicks_formanek"),
    ("hilbert", "molien_bicomm"),
    ("hilbert", "poly_gcd"),
    ("hilbert", "expand"),
    ("hilbert", "RationalFunction.__add__"),
    ("algebra_core", "YZPolynomial.__mul__"),
    ("algebra_core", "YZPolynomial.__add__"),
    ("algebra_core", "BicommElement.__mul__"),
    ("algebra_core", "BicommElement.__add__"),
    ("algebra_core", "basis_component"),
    ("invariants", "invariant_basis"),
    ("invariants", "EchelonBasis.add"),
    ("invariants", "element_to_row"),
    ("invariants", "row_to_element"),
    ("invariants", "poly_to_row"),
    ("invariants", "nonfg_witness"),
    ("invariants", "commutative_invariant_dimension"),
    ("invariants", "coefficient_spans"),
    ("symmetric", "symmetric_module_generators"),
    ("symmetric", "elementary_symmetric"),
    ("symmetric", "polarized_elementary"),
    ("symmetric", "verify_d2_identity"),
]

SPAN_NAMES = [f"{module}.{attr}" for module, attr in TRACED]

# Counters kept beside the spans, added to from a traced function's result:
# span name -> (counter, amount to add for one result).
CLOSURE_ELEMENTS = "group_action.closure_elements"
ECHELON_GREW = "invariants.echelon_grew"
RESULT_COUNTERS = {
    "group_action.group_closure": (CLOSURE_ELEMENTS, lambda group: group.order),
    "invariants.EchelonBasis.add": (ECHELON_GREW, bool),
}

# Per-layer metric -> ("self" seconds | "calls", the spans it sums).
LAYER_METRICS = {
    "hilbert.char_det_s": ("self", ["hilbert.char_det"]),
    "hilbert.char_det_calls": ("calls", ["hilbert.char_det"]),
    "hilbert.molien_s": (
        "self",
        ["hilbert.molien_classic", "hilbert.dicks_formanek", "hilbert.molien_bicomm"],
    ),
    "hilbert.rf_add_calls": ("calls", ["hilbert.RationalFunction.__add__"]),
    "hilbert.poly_gcd_s": ("self", ["hilbert.poly_gcd"]),
    "hilbert.poly_gcd_calls": ("calls", ["hilbert.poly_gcd"]),
    "hilbert.expand_s": ("self", ["hilbert.expand"]),
    "group_action.closure_s": ("self", ["group_action.group_closure"]),
    "group_action.load_group_s": ("self", ["group_action.load_group"]),
    "group_action.act_bulk_s": ("self", ["group_action.act_bulk"]),
    "group_action.act_bulk_calls": ("calls", ["group_action.act_bulk"]),
    "group_action.act_linear_s": ("self", ["group_action.act_linear"]),
    "group_action.reynolds_s": ("self", ["group_action.reynolds"]),
    "group_action.reynolds_calls": ("calls", ["group_action.reynolds"]),
    "algebra_core.yz_mul_s": ("self", ["algebra_core.YZPolynomial.__mul__"]),
    "algebra_core.yz_mul_calls": ("calls", ["algebra_core.YZPolynomial.__mul__"]),
    "algebra_core.yz_add_s": ("self", ["algebra_core.YZPolynomial.__add__"]),
    "algebra_core.element_mul_s": ("self", ["algebra_core.BicommElement.__mul__"]),
    "algebra_core.element_mul_calls": ("calls", ["algebra_core.BicommElement.__mul__"]),
    "algebra_core.element_add_s": ("self", ["algebra_core.BicommElement.__add__"]),
    "algebra_core.basis_component_s": ("self", ["algebra_core.basis_component"]),
    "invariants.invariant_basis_s": ("self", ["invariants.invariant_basis"]),
    "invariants.invariant_basis_calls": ("calls", ["invariants.invariant_basis"]),
    "invariants.echelon_add_s": ("self", ["invariants.EchelonBasis.add"]),
    "invariants.echelon_add_calls": ("calls", ["invariants.EchelonBasis.add"]),
    "invariants.row_convert_s": (
        "self",
        ["invariants.element_to_row", "invariants.row_to_element", "invariants.poly_to_row"],
    ),
    "invariants.nonfg_witness_s": ("self", ["invariants.nonfg_witness"]),
    "invariants.commutative_dimension_s": (
        "self",
        ["invariants.commutative_invariant_dimension"],
    ),
    "invariants.coefficient_spans_s": ("self", ["invariants.coefficient_spans"]),
    "symmetric.module_generators_s": ("self", ["symmetric.symmetric_module_generators"]),
    "symmetric.building_blocks_s": (
        "self",
        [
            "symmetric.elementary_symmetric",
            "symmetric.polarized_elementary",
            "symmetric.verify_d2_identity",
        ],
    ),
    "cli.main_self_s": ("self", ["cli.main"]),
}


class Tracer:
    """Records nested spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns
        counter, amount = RESULT_COUNTERS.get(name, (None, None))
        counters = self.counters

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += amount(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every `bicomm` binding of it."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "bicomm" or key.startswith("bicomm.")
        ]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = sys.modules[f"bicomm.{module_name}"]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(home, class_name)
                original = cls.__dict__[method]
                self._replace(cls, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def summary(self) -> dict:
        """Self seconds and calls per span name, the counters, and self seconds
        per layer module for each root span (one root per job)."""
        self_ns = self_times(self.span_start, self.span_end, self.span_parent)
        totals = defaultdict(int)
        calls = defaultdict(int)
        roots: list[dict[str, float]] = []
        root_of = array("i")
        for i, (name_id, parent) in enumerate(zip(self.span_name, self.span_parent)):
            totals[name_id] += self_ns[i]
            calls[name_id] += 1
            if parent < 0:
                root_of.append(len(roots))
                roots.append(defaultdict(float))
            else:
                root_of.append(root_of[parent])
            module = self.names[name_id].split(".")[0]
            roots[root_of[i]][module] += self_ns[i] / 1e9
        return {
            "self_s": {name: totals[i] / 1e9 for i, name in enumerate(self.names)},
            "calls": {name: calls[i] for i, name in enumerate(self.names)},
            "counters": dict(self.counters),
            "job_layer_self_s": [dict(r) for r in roots],
        }

    def write_spans(self, path) -> None:
        """All spans as parallel arrays; times in ns from the first span."""
        origin = self.span_start[0] if self.span_start else 0
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.span_name),
                    "parent": list(self.span_parent),
                    "start_ns": [t - origin for t in self.span_start],
                    "end_ns": [t - origin for t in self.span_end],
                },
                handle,
                separators=(",", ":"),
            )


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    are counted once.
    """
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        covered = 0
        run_lo = run_hi = None
        for child in sorted(children.get(i, ()), key=lambda c: starts[c]):
            c_lo, c_hi = max(starts[child], lo), min(ends[child], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics from a `Tracer.summary`, without the overhead ratio."""
    metrics = {}
    for metric, (kind, spans) in LAYER_METRICS.items():
        table = summary["self_s"] if kind == "self" else summary["calls"]
        metrics[metric] = sum(table.get(span, 0) for span in spans)
    counters = summary["counters"]
    metrics["group_action.closure_elements"] = counters.get(CLOSURE_ELEMENTS, 0)
    attempts = summary["calls"].get("invariants.EchelonBasis.add", 0)
    metrics["invariants.echelon_yield"] = (
        counters.get(ECHELON_GREW, 0) / attempts if attempts else 0.0
    )
    return metrics
