"""Per-layer tracing from outside the package: wrap public functions, record spans.

A `Tracer` replaces each traced function in every `dihedral_torus` module
namespace that binds it (so `compose` is wrapped in `analysis`,
`dihedral`, `words`, `torus` and the package itself), and each traced
method on its class.  Every call records one span (id, parent id, request
id, name, start, end) in memory; leaving the `with` block restores every
original binding.  Span times are thread CPU time.  Self time is a
span's duration minus the time its child spans cover; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "dihedral_torus"

# (module, attribute path, metric prefix)
TARGETS = (
    ("dihedral", "realified_action", "dihedral.realified_action"),
    ("dihedral", "quotient_lattice", "dihedral.quotient_lattice"),
    ("dihedral", "verify_theorem", "dihedral.verify_theorem"),
    ("dihedral", "verify_corollary", "dihedral.verify_corollary"),
    ("dihedral", "verify_mutant", "dihedral.verify_mutant"),
    ("torus", "realify", "torus.realify"),
    ("torus", "compose", "torus.compose"),
    ("torus", "inverse", "torus.inverse"),
    ("torus", "EnlargedLattice.reduce", "torus.EnlargedLattice.reduce"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "left_nullspace", "linalg.left_nullspace"),
    ("linalg", "hnf", "linalg.hnf"),
    ("linalg", "subgroup_membership", "linalg.subgroup_membership"),
    ("analysis", "analyze_group", "analysis.analyze_group"),
    ("analysis", "closure", "analysis.closure"),
    ("analysis", "order", "analysis.order"),
    ("analysis", "exists_fixed_point", "analysis.exists_fixed_point"),
    ("analysis", "conjugacy_classes", "analysis.conjugacy_classes"),
    ("analysis", "torsion_fixed_points_bruteforce",
     "analysis.torsion_fixed_points_bruteforce"),
    ("words", "parse_word", "words.parse_word"),
    ("words", "evaluate_word", "words.evaluate_word"),
    ("certificate", "theorem_document", "certificate.theorem_document"),
    ("certificate", "corollary_document", "certificate.corollary_document"),
    ("certificate", "render_json", "certificate.render_json"),
)

ORDER = "analysis.order"
FIXED_POINT = "analysis.exists_fixed_point"
CLOSURE = "analysis.closure"
ORACLE = "analysis.torsion_fixed_points_bruteforce"
RENDER = "certificate.render_json"
COMPOSE = "torus.compose"

EXTRA_METRICS = (
    (f"{ORDER}.unique_ratio", "ratio", "higher"),
    (f"{FIXED_POINT}.unique_ratio", "ratio", "higher"),
    (f"{CLOSURE}.useful_ratio", "ratio", "higher"),
    (f"{ORACLE}.grid_points", "count", "lower"),
    (f"{ORACLE}.points_per_s", "1/s", "higher"),
    (f"{RENDER}.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for _, _, prefix in TARGETS:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))
    specs.extend(EXTRA_METRICS)
    return specs


def _auto(g):
    return getattr(g, "auto", g)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _map_key(args, kwargs):
    """Identity of the map a fixed-point or order query is about."""
    auto = _auto(args[0])
    lattice = _arg(args, kwargs, 1, "lattice") or auto.lattice
    return (auto.linear.rows, auto.translation.coords, lattice.canonical_basis)


def _grid_points(args, kwargs):
    lattice = _arg(args, kwargs, 2, "lattice") or _auto(args[0]).lattice
    return _arg(args, kwargs, 1, "denominator") ** lattice.m


# What each observed call keeps, computed after its span has closed.
OBSERVERS = {
    ORDER: lambda args, kwargs, result: (args, kwargs),
    FIXED_POINT: lambda args, kwargs, result: (args, kwargs),
    CLOSURE: lambda args, kwargs, result: len(result),
    ORACLE: lambda args, kwargs, result: _grid_points(args, kwargs),
    RENDER: lambda args, kwargs, result: len(result.encode("utf-8")),
}


class Tracer:
    """Context manager that wraps the traced layers and records spans."""

    def __init__(self):
        self.spans: list = []
        self.observed: dict[str, list] = defaultdict(list)
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        owners = {
            module_name: importlib.import_module(f"{PACKAGE}.{module_name}")
            for module_name, _, _ in TARGETS
        }
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        try:
            for module_name, path, metric in TARGETS:
                owner = owners[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, metric, [cls])
                else:
                    self._patch(owner, path, metric, modules)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr, metric, namespaces) -> None:
        original = vars(owner)[attr]
        wrapper = self._wrap(metric, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def _restore(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.thread_time
        observe = OBSERVERS.get(name)
        observed = self.observed[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.request, name, start, end)
            if observe is not None:
                observed.append(observe(args, kwargs, result))
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over every span this tracer recorded."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        closure_compositions = 0
        for span_id, parent, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start - child_time[span_id]
            if name == COMPOSE and parent >= 0 and self.spans[parent][3] == CLOSURE:
                closure_compositions += 1
        out: dict[str, float] = {}
        for _, _, prefix in TARGETS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.self_s"] = total[prefix]
        for name in (ORDER, FIXED_POINT):
            keys = [_map_key(*call) for call in self.observed[name]]
            out[f"{name}.unique_ratio"] = _ratio(len(set(keys)), len(keys))
        new_elements = sum(size - 1 for size in self.observed[CLOSURE])
        out[f"{CLOSURE}.useful_ratio"] = _ratio(new_elements, closure_compositions)
        points = sum(self.observed[ORACLE])
        oracle_time = sum(
            end - start for _, _, _, name, start, end in self.spans if name == ORACLE
        )
        out[f"{ORACLE}.grid_points"] = points
        out[f"{ORACLE}.points_per_s"] = _ratio(points, oracle_time)
        out[f"{RENDER}.bytes"] = sum(self.observed[RENDER])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
