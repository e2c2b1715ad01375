"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the imported ``riskchain``
modules, the private H<->V converters, and scipy's ``linprog`` / ``nnls`` /
``ConvexHull``.  It patches each module attribute that callers resolve,
including ``from x import f`` bindings, so one wrapper sees every call site.
A span is ``[name, start, end, parent index]``; counters are exact integers.
A layer's self time is its span time minus the time of its direct children.
Importing this module imports nothing but the standard library.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# private engine functions that carry a layer of their own
PRIVATE = {
    ("riskchain.riskset", "_enumerate_vertices"): "riskset.vertices",
    ("riskchain.riskset", "_facets"): "riskset.constraints",
}
SOLVERS = {
    ("scipy.optimize", "linprog"): "solver.linprog",
    ("scipy.optimize", "nnls"): "solver.nnls",
    ("scipy.spatial", "ConvexHull"): "solver.convexhull",
}


def _pairs(prefix, fns):
    out = []
    for fn in fns:
        out.append((f"{prefix}.{fn}.calls", "count", "calls", f"{prefix}.{fn}"))
        out.append((f"{prefix}.{fn}.self_s", "s", "self", f"{prefix}.{fn}"))
    return out


# (metric, unit, kind, key): kind "calls"/"self" read the span named key,
# "count" reads a counter, "ratio" divides two counters, "probe" is filled in
# by the import probes, "trace" by the traced run itself.
LAYER_METRICS = [
    ("import.python_s", "s", "probe", None),
    ("import.numpy_s", "s", "probe", None),
    ("import.scipy_optimize_s", "s", "probe", None),
    ("import.riskchain_s", "s", "probe", None),
    ("cli.load_spec.self_s", "s", "self", "cli.load_spec"),
    ("cli.main.self_s", "s", "self", "cli.main"),
    ("consistency.paste_assembly.calls", "count", "calls", "consistency.paste_assembly"),
    ("consistency.paste_assembly.self_s", "s", "self", "consistency.paste_assembly"),
    ("consistency.paste_assembly.vertices_out", "count", "count",
     "consistency.paste_assembly.vertices_out"),
    ("riskset.kernel_polytope.calls", "count", "calls", "riskset.kernel_polytope"),
    ("riskset.kernel_polytope.self_s", "s", "self", "riskset.kernel_polytope"),
    ("riskset.kernel_polytope.kept_ratio", "ratio", "ratio",
     ("riskset.kernel_polytope.kernels", "riskset.kernel_polytope.charged")),
    *_pairs("solver", ["nnls"]),
    *_pairs("consistency", ["mstable_hull", "find_witness", "check_strong"]),
    *_pairs("riskset", ["set_equal", "member"]),
    ("riskset.vertices.enumerations", "count", "calls", "riskset.vertices"),
    ("riskset.vertices.self_s", "s", "self", "riskset.vertices"),
    ("riskset.vertices.vertices_out", "count", "count", "riskset.vertices.vertices_out"),
    ("riskset.constraints.facetings", "count", "calls", "riskset.constraints"),
    ("riskset.constraints.self_s", "s", "self", "riskset.constraints"),
    ("riskset.constraints.facets_out", "count", "count", "riskset.constraints.facets_out"),
    *_pairs("riskset", ["intersect"]),
    *_pairs("solver", ["convexhull"]),
    ("riskset.maximize_ratio.calls_lp", "count", "calls", "riskset.maximize_ratio.lp"),
    ("riskset.maximize_ratio.calls_vertex", "count", "calls", "riskset.maximize_ratio.vertex"),
    ("riskset.maximize_ratio.self_s_lp", "s", "self", "riskset.maximize_ratio.lp"),
    ("riskset.maximize_ratio.self_s_vertex", "s", "self", "riskset.maximize_ratio.vertex"),
    *_pairs("solver", ["linprog"]),
    *_pairs("risk", ["rho", "eta", "decompose_acceptance", "is_acceptable"]),
    *_pairs("intermarket", ["build_refined", "qf", "qi", "check_fi", "split_reserve",
                            "psi_build", "psi_verify"]),
    ("trace.named_share", "ratio", "trace", None),
    ("trace.overhead_ms", "ms", "trace", None),
]

# spans whose self time the layer table names; the cli child's import span
# counts too, since import is the cli workload's dominant layer
NAMED = {key for _, _, kind, key in LAYER_METRICS if kind == "self"} | {"import"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.current()])
        self._stack.append(idx)
        return idx

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans, parent: int):
        """Append spans recorded by another process under ``parent``."""
        base = len(self.spans)
        for name, start, end, par in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par])

    def _wrap(self, fn, name, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            idx = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if hook is not None:
                hook(tracer.counts, result, args)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        import importlib

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "riskchain" or k.startswith("riskchain."))]
        targets = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[-1]
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and callable(val) and not isinstance(val, type)
                        and getattr(val, "__module__", None) == mod.__name__):
                    targets[id(val)] = (val, f"{short}.{attr}")
        for (modname, attr), name in PRIVATE.items():
            mod = sys.modules.get(modname)
            if mod is not None and hasattr(mod, attr):
                val = getattr(mod, attr)
                targets[id(val)] = (val, name)
        solver_mods = []
        for (modname, attr), name in SOLVERS.items():
            mod = importlib.import_module(modname)
            solver_mods.append(mod)
            val = getattr(mod, attr)
            targets[id(val)] = (val, name)

        wrappers = {}
        for key, (fn, name) in targets.items():
            label, hook = name, HOOKS.get(name)
            if name == "riskset.maximize_ratio":
                label = _ratio_route
            wrappers[key] = self._wrap(fn, label, hook)
        for mod in modules + solver_mods:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def layer_stats(self, first: int = 0, last: int | None = None):
        """Calls and self seconds per span name, plus the total duration of
        root spans, over the spans ``first:last``."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        root_s = 0.0
        for name, start, end, parent in self.spans[first:last]:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                root_s += dur
        return calls, self_s, root_s


def _ratio_route(args):
    # the route the engine takes is read from the set at the call
    return "riskset.maximize_ratio.vertex" if args[0].has_vertices else "riskset.maximize_ratio.lp"


def _count_kernels(counts, result, args):
    rs, s, _t, atom_id = args[:4]
    model = rs.model
    idx = list(model.atoms(model.stage(s))[atom_id])
    counts["riskset.kernel_polytope.kernels"] += len(result)
    counts["riskset.kernel_polytope.charged"] += int((rs.vertices[:, idx].sum(axis=1) > 0).sum())


def _counter(key, size):
    def hook(counts, result, args):
        counts[key] += size(result)
    return hook


HOOKS = {
    "riskset.kernel_polytope": _count_kernels,
    "riskset.vertices": _counter("riskset.vertices.vertices_out", len),
    "riskset.constraints": _counter("riskset.constraints.facets_out", len),
    "consistency.paste_assembly": _counter("consistency.paste_assembly.vertices_out",
                                           lambda rs: len(rs.vertices)),
}
