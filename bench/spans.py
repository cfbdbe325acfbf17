"""Call spans around the public functions of every rsmorse layer.

Tracer.install() replaces each public function of the layer modules, in
every rsmorse namespace that binds it, and each public method of their
classes, by a wrapper that records one span (name, start, end, parent)
per call.  Spans stay in memory until the traced round ends; summary()
then derives per-layer self time (a span's duration minus its wrapped
children) and the work counters, and write() dumps the spans as TSV.
"""

import importlib
import inspect
import time
from array import array

LAYERS = (
    "qcore",
    "combinatorics",
    "linalg",
    "dualop",
    "polynomials",
    "latticeop",
    "spectral",
    "scattering",
    "cli",
)

# validation and sort-key helpers run inside nearly every call; their cost
# stays in the caller's self time instead of adding a span each
SKIP = {"check_partition", "is_partition", "total_order_key"}


def _args(args, kwargs, names):
    """The named parameters of a call, positional or keyword, lists as tuples."""
    vals = list(args[: len(names)]) + [kwargs[n] for n in names[len(args) :]]
    return tuple(tuple(v) if isinstance(v, list) else v for v in vals)


def _grid_points(points):
    shape = getattr(points, "shape", None)
    if shape is not None:
        return shape[0] if len(shape) > 1 else 1
    return len(points)


# extra work counters, keyed by the span name of the wrapped function:
# (counter, kind, how to read it off the call arguments)
ARG_COUNTERS = {
    "latticeop.hop_terms": (
        "latticeop.hop_terms.distinct",
        "distinct",
        lambda a, k: _args(a, k, ("l", "lam", "params")),
    ),
    "combinatorics.monomial_eval": (
        "combinatorics.monomial_eval.distinct",
        "distinct",
        lambda a, k: _args(a, k, ("mu", "z")),
    ),
    "linalg.solve_exact": ("linalg.solve_exact.unknowns", "sum", lambda a, k: len(_args(a, k, ("A",))[0])),
    "spectral.weight_grid": (
        "spectral.weight_grid.points",
        "sum",
        lambda a, k: _grid_points(_args(a, k, ("points",))[0]),
    ),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.raised = {}
        self.sums = {}
        self.distinct = {}
        self._stack = [-1]
        self._patches = []

    def _targets(self):
        """(owner, attribute, function, span name) for everything to wrap."""
        package = importlib.import_module("rsmorse")
        modules = {layer: importlib.import_module(f"rsmorse.{layer}") for layer in LAYERS}
        functions = {}
        out = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in SKIP or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            out.append((obj, meth, fn, f"{layer}.{obj.__name__}.{meth}"))
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in functions:
                    out.append((ns, attr, obj, functions[obj]))
        return out

    def _wrap(self, fn, span_name):
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        counter = ARG_COUNTERS.get(span_name)
        start, end, name, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                self._count(counter, args, kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[span_name] = self.raised.get(span_name, 0) + 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, counter, args, kwargs):
        label, kind, read = counter
        if kind == "sum":
            self.sums[label] = self.sums.get(label, 0) + read(args, kwargs)
        else:
            self.distinct.setdefault(label, set()).add(read(args, kwargs))

    def install(self):
        for owner, attr, fn, span_name in self._targets():
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span_name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def summary(self, round_s):
        """Per-layer self time and work counters of the traced round.

        Self times, bench.self_s included, sum to round_s: the time outside
        every wrapped call is the benchmark's own.
        """
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        top = 0.0
        calls = {}
        for i in range(count):
            span = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            metrics[span.split(".", 1)[0] + ".self_s"] += dur - child[i]
            if self.parent[i] < 0:
                top += dur
            calls[span] = calls.get(span, 0) + 1
        metrics["bench.self_s"] = round_s - top
        metrics["traced.run_s"] = round_s
        interpolations = calls.get("dualop.matrix_in_monomial_basis", 0) + calls.get(
            "dualop.apply_Hhat_l", 0
        )
        metrics["dualop.interpolations"] = interpolations
        metrics["dualop.resamples"] = calls.get("dualop.generic_points", 0) - interpolations
        metrics["linalg.solve_exact.singular"] = self.raised.get("linalg.solve_exact", 0)
        for span in (
            "dualop.dual_terms_at_point",
            "linalg.solve_exact",
            "combinatorics.monomial_eval",
            "combinatorics.orbit",
            "polynomials.build_P",
            "polynomials.pieri_residual",
            "latticeop.hop_terms",
            "latticeop.apply_Hl",
            "qcore.qpoch_finite",
            "qcore.qpoch_infinite",
            "spectral.evaluate_P_grid",
            "scattering.S_hat",
        ):
            metrics[f"{span}.calls"] = calls.get(span, 0)
        for label, *_ in ARG_COUNTERS.values():
            metrics[label] = self.sums.get(label, len(self.distinct.get(label, ())))
        return metrics

    def write(self, path):
        """Dump the spans as TSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
