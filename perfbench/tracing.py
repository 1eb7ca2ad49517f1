"""Per-layer tracing from outside the package.

The package has no hooks of its own, so the tracer wraps callables while it
is installed and restores them afterwards:

- every public function of each layer module, and every private one that
  another ``qexpfam`` module imports (the CLI's face-direction search), is
  replaced by a timing wrapper in every ``qexpfam`` namespace that binds it;
- ``HermitianElement.__init__`` and ``State.__init__`` count constructions
  as spans of ``linalg`` and ``states``;
- ``numpy.linalg.eigh`` and ``eigvalsh`` count calls and the computed work
  sum(n**3) over the matrices they decompose (no span: they are leaves).

Spans nest on one stack.  A layer's self time is the time of its spans minus
the time of the spans they call; its busy time counts only the outermost span
of that layer, so self time never exceeds busy time.  Spans are aggregated in
memory per (op, caller, callee) edge and written out once, at the end of a
run.  Methods of the package's classes are not wrapped: their own time counts
toward the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "states", "family", "boundary", "closures", "cone",
          "maximizer", "cli", "output")

# (layer, class name) whose constructor is traced, and the span name it gets
CONSTRUCTORS = (("linalg", "HermitianElement"), ("states", "State"))

REPORTS = ("cone.staffelberg_report", "cone.swallow_report",
           "cone.cone_identity_residuals")


def _count_result(key_fn):
    def after(tracer, result):
        for key, value in key_fn(result):
            tracer.counts[key] += value
    return after


AFTER_HOOKS = {
    "family.project_to_family": _count_result(lambda r: (
        ("family.newton_iters", r.iterations), ("family.cap_hits", int(r.cap_hit)))),
    "boundary.mean_value_boundary_sweep": _count_result(lambda r: (
        ("boundary.faces", len(r.faces)),
        ("boundary.refined", sum(1 for f in r.faces if f.refined)))),
    "closures.geodesic_closure_atlas": _count_result(lambda r: (
        ("closures.atlas_groups", len(r.groups)),)),
}


def _count_written(tracer, args, kwargs):
    text = kwargs["text"] if "text" in kwargs else args[1]
    tracer.counts["output.bytes"] += len(text.encode("utf-8"))


BEFORE_HOOKS = {"output.atomic_write": _count_written}


class Tracer:
    """Installs the wrappers; collects counts and span times until reset."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"qexpfam.{name}") for name in LAYERS}
        self._restore: list[tuple[object, str, object]] = []
        self.edges: dict = defaultdict(lambda: [0, 0.0])
        self.reset()

    # -- collection -----------------------------------------------------------

    def reset(self) -> None:
        """Clear counts and times (the aggregated span edges are kept)."""
        self.op = "setup"
        self.stack = [["op", 0.0]]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.busy_s: defaultdict = defaultdict(float)
        self.fn_s: defaultdict = defaultdict(float)
        self._layer_depth: Counter = Counter()
        self._fn_depth: Counter = Counter()

    def begin_op(self, label: str) -> None:
        self.op = label
        self.stack = [[f"op:{label}", 0.0]]

    def _span(self, layer: str, qual: str, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1]
            frame = [qual, 0.0]
            tracer.stack.append(frame)
            tracer._layer_depth[layer] += 1
            tracer._fn_depth[qual] += 1
            if before is not None:
                before(tracer, args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.stack.pop()
                tracer._layer_depth[layer] -= 1
                tracer._fn_depth[qual] -= 1
                tracer.self_s[layer] += dt - frame[1]
                if not tracer._layer_depth[layer]:
                    tracer.busy_s[layer] += dt
                if not tracer._fn_depth[qual]:
                    tracer.fn_s[qual] += dt
                parent[1] += dt
                tracer.calls[qual] += 1
                edge = tracer.edges[(tracer.op, parent[0], qual)]
                edge[0] += 1
                edge[1] += dt
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _eigh_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            matrices = math.prod(shape[:-2])
            tracer.counts["linalg.eigh"] += 1
            tracer.counts["linalg.eigh_work"] += matrices * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "qexpfam" or name.startswith("qexpfam.")]
        bound_in = defaultdict(set)
        for mod in package:
            for value in vars(mod).values():
                if inspect.isfunction(value):
                    bound_in[id(value)].add(mod.__name__)

        wrappers = {}
        for layer, mod in self.modules.items():
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                shared = bound_in[id(fn)] - {mod.__name__}
                if name.startswith("_") and not shared:
                    continue
                qual = f"{layer}.{fn.__name__}"
                wrappers[id(fn)] = (fn, self._span(layer, qual, fn,
                                                   BEFORE_HOOKS.get(qual),
                                                   AFTER_HOOKS.get(qual)))
        for mod in package:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(self.modules[layer], cls_name)
            self._set(cls, "__init__",
                      self._span(layer, f"{layer}.{cls_name}", cls.__init__))
        for name in ("eigh", "eigvalsh"):
            self._set(np.linalg, name, self._eigh_counter(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything since the last reset."""
        c, n, fn_s = self.calls, self.counts, self.fn_s
        return {
            "linalg.element_new": c["linalg.HermitianElement"],
            "linalg.eigh": n["linalg.eigh"],
            "linalg.eigh_work": n["linalg.eigh_work"],
            "linalg.self_s": self.self_s["linalg"],
            "states.state_new": c["states.State"],
            "states.self_s": self.self_s["states"],
            "family.solves": c["family.project_to_family"],
            "family.newton_iters": n["family.newton_iters"],
            "family.cap_hits": n["family.cap_hits"],
            "family.compressed": c["family.make_compressed_family"],
            "family.solve_s": fn_s["family.project_to_family"],
            "family.self_s": self.self_s["family"],
            "boundary.sweeps": c["boundary.mean_value_boundary_sweep"],
            "boundary.faces": n["boundary.faces"],
            "boundary.refined": n["boundary.refined"],
            "boundary.self_s": self.self_s["boundary"],
            "closures.atlases": c["closures.geodesic_closure_atlas"],
            "closures.atlas_groups": n["closures.atlas_groups"],
            "closures.atlas_s": fn_s["closures.geodesic_closure_atlas"],
            "closures.face_searches": c["closures._search_face_direction"],
            "closures.face_search_s": fn_s["closures._search_face_direction"],
            "closures.rI_calls": c["closures.rI_membership"],
            "closures.chain_s": fn_s["closures.inclusion_chain_check"],
            "closures.self_s": self.self_s["closures"],
            "cone.report_s": sum(fn_s[q] for q in REPORTS),
            "cone.self_s": self.self_s["cone"],
            "maximizer.certificates": c["maximizer.maximizer_certificate"],
            "maximizer.self_s": self.self_s["maximizer"],
            "cli.command_s": fn_s["cli.main"],
            "cli.self_s": self.self_s["cli"],
            "output.files": c["output.atomic_write"],
            "output.bytes": n["output.bytes"],
            "output.write_s": self.busy_s["output"],
        }

    def self_exceeds_busy(self) -> list[str]:
        """Layers whose self time exceeds their busy time (must be none)."""
        return [layer for layer in LAYERS
                if self.self_s[layer] > self.busy_s[layer] * (1.0 + 1e-9) + 1e-12]

    def edge_table(self) -> list[dict]:
        return [
            {"op": op, "caller": caller, "span": span, "calls": calls, "total_s": total}
            for (op, caller, span), (calls, total) in sorted(self.edges.items())
        ]

