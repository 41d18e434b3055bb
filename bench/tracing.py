"""Layer tracing of ``dmy`` from outside the package.

``Tracer.install`` wraps the public functions of each layer, the
``eval``/``jacobian`` methods of the map classes and the ``Point2``/``Mat2``
constructors.  A module that imported a function by name holds its own
binding, so every ``dmy.*`` module attribute bound to a wrapped function is
replaced, and ``uninstall`` puts the originals back.  Source files are not
touched.

Coarse calls (commands, builds, sweeps, searches, one orbit
classification) each become a span: name, start, end, parent span and op
id.  Hot calls (constructors, map evaluations, 2x2 spectral queries, phi)
are aggregated per parent span as a count, a total and a self time.  A
call's self time is its duration minus the durations of the wrapped calls
made inside it.  A layer's self time is the sum over its calls; the raw
step closures that ``classify_omega`` iterates cannot be wrapped, so their
cost is part of ``classify_omega``'s self time, and steps are counted from
``OmegaVerdict.iterations``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_ns = time.perf_counter_ns

MAP_CLASSES = (("szlenk", "SzlenkMap"), ("ga", "DampedSzlenkMap"),
               ("radial", "RadialMap"), ("composite", "CompositeMap"))
TAGS = (("converges", "converges-to-origin"), ("periodic", "periodic"),
        ("escaping", "escaping"), ("undecided", "undecided"))
LAYERS = ("geometry", "planar", "phi", "spectral", "dynamics", "counterexample", "cli")

# (module, attribute, coarse?) for module-level functions
_FUNCTIONS = [
    ("planar", "compose", True), ("planar", "iterate", True),
    ("planar", "fd_jacobian", False), ("planar", "step_function", False),
    ("phi", "build_phi", True), ("phi", "phi_eval", False),
    ("phi", "phi_deriv", False), ("phi", "phi_log_slope", False),
    ("spectral", "eig2", False), ("spectral", "spectral_radius", False),
    ("spectral", "operator_norm", False), ("spectral", "sample_spectrum", True),
    ("spectral", "sample_norm_sup", True), ("spectral", "check_ball", True),
    ("spectral", "check_interval_free", True), ("spectral", "check_real_free", True),
    ("dynamics", "classify_omega", True), ("dynamics", "find_periodic", True),
    ("dynamics", "orbit_multipliers", True), ("dynamics", "dissipativity_bound", True),
    ("dynamics", "verify_invariant_ray", True), ("dynamics", "basin_raster", True),
    ("dynamics", "resolve_workers", True),
    # one Newton solve per step; the search has no public per-step boundary
    ("dynamics", "_newton_delta", True),
    ("counterexample", "build_counterexample", True),
    ("counterexample", "verify_counterexample", True),
    ("cli", "main", True),
]
# (class, attribute, span name) in dmy.geometry
_GEOMETRY = [
    ("Point2", "__init__", "geometry.point2_new"), ("Mat2", "__init__", "geometry.mat2_new"),
    ("Point2", "norm", "geometry.Point2.norm"), ("Point2", "dist", "geometry.Point2.dist"),
    ("Mat2", "__matmul__", "geometry.Mat2.matmul"), ("Mat2", "__sub__", "geometry.Mat2.sub"),
    ("Mat2", "apply", "geometry.Mat2.apply"), ("Mat2", "trace", "geometry.Mat2.trace"),
    ("Mat2", "det", "geometry.Mat2.det"),
]


def _classify_note(verdict):
    return {"tag": verdict.tag.value, "iterations": verdict.iterations}


class Tracer:
    """Collects spans and per-parent aggregates; ``op`` tags new spans."""

    def __init__(self):
        self.op = None
        self.spans = []  # [id, name, start_ns, end_ns, parent id, op, self_ns, note]
        self.agg = {}    # (parent span id, name) -> [count, total_ns, self_ns]
        self._stack = [[0, None]]  # frames: [child ns so far, enclosing span id]
        self._next_id = 0
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _coarse(self, name, fn):
        stack = self._stack
        spans = self.spans
        note = _classify_note if name == "dynamics.classify_omega" else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0, sid]
            stack.append(frame)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _ns()
                stack.pop()
                parent[0] += t1 - t0
                span = [sid, name, t0, t1, parent[1], self.op, t1 - t0 - frame[0], None]
                spans.append(span)
            if note is not None:
                span[7] = note(result)
            return result

        return traced

    def _hot(self, name, fn):
        stack = self._stack
        agg = self.agg

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            t0 = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _ns() - t0
                stack.pop()
                parent[0] += d
                entry = agg.get((parent[1], name))
                if entry is None:
                    agg[(parent[1], name)] = [1, d, d - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += d
                    entry[2] += d - frame[0]

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        import dmy.geometry as geometry
        import dmy.planar as planar
        mods = {n: m for n, m in sys.modules.items() if n == "dmy" or n.startswith("dmy.")}
        for mod_name, attr, coarse in _FUNCTIONS:
            orig = getattr(mods["dmy." + mod_name], attr)
            name = f"{mod_name}.{attr}"
            wrapped = self._coarse(name, orig) if coarse else self._hot(name, orig)
            for mod in mods.values():
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._set(mod, key, wrapped)
        for variant, cls_name in MAP_CLASSES:
            cls = getattr(planar, cls_name)
            for meth in ("eval", "jacobian"):
                self._set(cls, meth, self._hot(f"planar.{variant}.{meth}", cls.__dict__[meth]))
        for cls_name, attr, name in _GEOMETRY:
            cls = getattr(geometry, cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                self._set(cls, attr, property(self._hot(name, orig.fget)))
            else:
                self._set(cls, attr, self._hot(name, orig))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def _counts(self):
        """Per name: calls, total ns; per layer: self ns."""
        calls, total, layer_self = Counter(), Counter(), Counter()
        for _sid, name, t0, t1, _parent, _op, self_ns, _note in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            layer_self[name.split(".", 1)[0]] += self_ns
        for (_parent, name), (count, tot, self_ns) in self.agg.items():
            calls[name] += count
            total[name] += tot
            layer_self[name.split(".", 1)[0]] += self_ns
        return calls, total, layer_self

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op counts and self times of every layer, from the spans."""
        calls, total, layer_self = self._counts()
        names = {s[0]: s[1] for s in self.spans}
        out = {
            "geometry.point2_new": calls["geometry.point2_new"],
            "geometry.mat2_new": calls["geometry.mat2_new"],
        }
        for variant, _cls in MAP_CLASSES:
            out[f"planar.{variant}.jacobian_calls"] = calls[f"planar.{variant}.jacobian"]
            out[f"planar.{variant}.eval_calls"] = calls[f"planar.{variant}.eval"]
        out["phi.phi_eval_calls"] = calls["phi.phi_eval"]
        out["phi.phi_log_slope_calls"] = calls["phi.phi_log_slope"]
        out["spectral.eig2_calls"] = calls["spectral.eig2"]
        out["spectral.operator_norm_calls"] = calls["spectral.operator_norm"]
        cells, steps = Counter(), Counter()
        for s in self.spans:
            if s[1] == "dynamics.classify_omega":
                cells[s[7]["tag"]] += 1
                steps[s[7]["tag"]] += s[7]["iterations"]
        for short, tag in TAGS:
            out[f"dynamics.cells.{short}"] = cells[tag]
            out[f"dynamics.steps.{short}"] = steps[tag]
        out["dynamics.find_periodic_calls"] = calls["dynamics.find_periodic"]
        out["dynamics.newton_iters"] = calls["dynamics._newton_delta"]
        out["dynamics.fd_jacobian_calls"] = calls["planar.fd_jacobian"]
        builds = calls["counterexample.build_counterexample"]
        searches_in_build = sum(1 for s in self.spans if s[1] == "dynamics.find_periodic"
                                and names.get(s[4]) == "counterexample.build_counterexample")
        out["counterexample.build_s"] = total["counterexample.build_counterexample"] / 1e9
        out["counterexample.verify_s"] = total["counterexample.verify_counterexample"] / 1e9
        out["counterexample.eps_attempts"] = calls["phi.build_phi"]
        # each damping value the build tries ends in exactly one period-4 search
        out["counterexample.a_halvings"] = searches_in_build - builds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        return {k: v / n_ops for k, v in out.items()}

    def per_op_calls(self) -> dict:
        op_of = {s[0]: s[5] for s in self.spans}
        per = defaultdict(Counter)
        for s in self.spans:
            per[s[5]][s[1]] += 1
        for (parent, name), (count, _tot, _self) in self.agg.items():
            per[op_of.get(parent)][name] += count
        return {str(op): dict(sorted(c.items())) for op, c in sorted(per.items(),
                                                                    key=lambda kv: str(kv[0]))}

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        op_of = {s[0]: s[5] for s in self.spans}
        return {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op", "self_ns", "note"],
            "spans": self.spans,
            "aggregate_fields": ["parent", "op", "name", "count", "total_ns", "self_ns"],
            "aggregates": [[parent, op_of.get(parent), name, c, tot, s]
                           for (parent, name), (c, tot, s) in self.agg.items()],
            "calls_per_op": self.per_op_calls(),
        }
