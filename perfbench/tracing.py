"""Per-layer tracing of interpcat from outside the program.

`Tracer.install()` imports every layer's module, then replaces every
public function of every interpcat module with a wrapper, in every module
namespace that binds it (so calls made inside the library go through the
wrappers too).  Functions behind a decorator such as `lru_cache` are wrapped
outside it, so cache hits count as calls too.  It also wraps the public
methods of interpcat's classes plus the scalar operators of `Poly` and
`RatFunc`.  A layer is the module that defines the function.

Each wrapped call is a span (name, start, end, parent).  Spans are folded
as they close into one record per (parent, name) edge: calls, total time and
self time, where self time is the span minus the time its child spans
cover.  A layer's self time is the sum over its functions, so private
helpers and stdlib Fraction work count toward the nearest enclosing public
call.  Some wrappers also look at arguments or results to count work
(`_observer`); other counts are call counts (CALL_COUNTS).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "ratfunc",
    "diagrams",
    "homspaces",
    "linalg",
    "karoubi",
    "semisimplify",
    "oracle",
    "symfun",
    "partitions",
)

# scalar and morphism operators are dunders, but they are the layers' work
OPERATORS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__",
    "__divmod__", "__call__",
)
OPERATOR_CLASSES = ("Poly", "RatFunc", "Morphism")

# per-layer counts derived from the call counts of these functions
CALL_COUNTS = {
    "ratfunc.constructions": ("ratfunc.RatFunc.__init__",),
    "diagrams.compositions": ("diagrams.compose_diagrams",),
    "diagrams.validated_builds": (
        "diagrams.partition_diagram",
        "diagrams.brauer_diagram",
        "diagrams.walled_diagram",
    ),
    "linalg.echelon_rows": ("linalg.SparseEchelon.add",),
    "karoubi.idempotency_checks": ("karoubi.is_idempotent",),
    "karoubi.symmetrizers_built": (
        "karoubi.young_symmetrizer",
        "karoubi.bipartition_symmetrizer",
    ),
    "oracle.matrices": ("oracle.diagram_matrix",),
    "symfun.lr_calls": ("symfun.lr_coefficient",),
}


def _matrix_entries(matrix) -> int:
    return len(matrix) * len(matrix[0]) if len(matrix) else 0


def _partition_key(p) -> tuple:
    return tuple(int(x) for x in p if x)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child time] per open span
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total, self]
        self.counts = {
            "diagrams.basis_diagrams": 0,
            "homspaces.term_pairs": 0,
            "linalg.echelon_useful": 0,
            "linalg.dense_entries": 0,
            "semisimplify.pairings": 0,
        }
        self.lr_keys: set = set()
        self._undo: list = []

    # -- installation --------------------------------------------------------

    def _observer(self, name: str):
        """Argument/result hook for the functions whose work is counted."""
        c = self.counts
        if name == "diagrams.enumerate_basis":
            def seen(args, kwargs, result):
                c["diagrams.basis_diagrams"] += len(result)
        elif name == "homspaces.compose":
            def seen(args, kwargs, result):
                c["homspaces.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif name == "linalg.SparseEchelon.add":
            def seen(args, kwargs, result):
                c["linalg.echelon_useful"] += bool(result)
        elif name in ("linalg.dense_rank", "linalg.determinant", "linalg.right_nullspace"):
            def seen(args, kwargs, result):
                c["linalg.dense_entries"] += _matrix_entries(args[0])
        elif name == "semisimplify.gram":
            def seen(args, kwargs, result):
                c["semisimplify.pairings"] += _matrix_entries(result.gram)
        elif name == "semisimplify.gram_matrix_symbolic":
            def seen(args, kwargs, result):
                c["semisimplify.pairings"] += _matrix_entries(result)
        elif name == "symfun.lr_coefficient":
            keys = self.lr_keys

            def seen(args, kwargs, result):
                keys.add(tuple(_partition_key(p) for p in args))
        else:
            return None
        return seen

    def _wrap(self, fn, name: str):
        stack, edges, perf = self.stack, self.edges, time.perf_counter
        seen = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent else None, name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if seen is not None:
                seen(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"interpcat.{layer}")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "interpcat" or name.startswith("interpcat.")
        }
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(inspect.unwrap(value)):
                    continue
                origin = value.__module__ or ""
                if not origin.startswith("interpcat."):
                    continue
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self._wrap(value, f"{origin.split('.')[-1]}.{value.__name__}")
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[key])
        for mod in modules.values():
            for cls in list(vars(mod).values()):
                if (
                    not inspect.isclass(cls)
                    or cls.__module__ != mod.__name__
                    or cls.__name__.startswith("_")
                ):
                    continue
                layer = mod.__name__.split(".")[-1]
                for attr, value in list(vars(cls).items()):
                    public = not attr.startswith("_")
                    operator = cls.__name__ in OPERATOR_CLASSES and attr in OPERATORS
                    if inspect.isfunction(value) and (public or operator):
                        self._undo.append((cls, attr, value))
                        setattr(cls, attr, self._wrap(value, f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, name), rec in self.edges.items():
            out[name] = out.get(name, 0) + rec[0]
        return out

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics, the per-function table and the span edges."""
        calls = self.calls()
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        functions: dict[str, dict] = {}
        for (parent, name), (n, total, own) in self.edges.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            layer_calls[layer] = layer_calls.get(layer, 0) + n
            f = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            f["calls"] += n
            f["self_s"] += own
            if parent != name:
                f["total_s"] += total  # direct recursion would count twice
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
            metrics[f"{layer}.calls"] = layer_calls[layer]
        for metric, names in CALL_COUNTS.items():
            metrics[metric] = sum(calls.get(n, 0) for n in names)
        metrics.update({k: v for k, v in self.counts.items() if k != "linalg.echelon_useful"})
        rows = metrics["linalg.echelon_rows"]
        metrics["linalg.echelon_useful_ratio"] = (
            self.counts["linalg.echelon_useful"] / rows if rows else 0.0
        )
        lr = metrics["symfun.lr_calls"]
        metrics["symfun.lr_distinct_ratio"] = len(self.lr_keys) / lr if lr else 0.0
        outside = wall_s - sum(layer_self.values())
        return {
            "wall_s": wall_s,
            "harness_self_s": outside,
            "metrics": metrics,
            "functions": functions,
            "edges": [
                {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                for (p, n), (c, t, s) in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
            ],
        }
