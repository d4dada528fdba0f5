"""Outside-in span tracing of the darboux layers.

The benchmark wraps the public functions and methods of each layer from
here; nothing in ``src/`` knows about it.  A span has a name, a start and
an end (``perf_counter_ns``), the id of the span that was open when it
started (its parent) and the pass id.  Spans live in compact arrays in
memory and are written once, when the pass ends.

A span is not opened while another span of the same name is open, so a
recursive function (``eval_expr``, ``expr.derivative``) counts only its
outermost call.  Self time is a span's duration minus the durations of
its direct children, which nest inside it because the pass runs on one
thread.
"""

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute) pairs.  A dotted attribute names a
# method on a class; a plain one a module function, which is replaced at
# every binding in every loaded darboux module.
LAYERS = {
    "jets.mul": [("jets", "Jet.__mul__"), ("jets", "Jet.__rmul__")],
    "jets.reciprocal": [("jets", "Jet.reciprocal")],
    "jets.space": [("jets", "JetSpace.__init__")],
    "jets.compose": [("jets", "jet_compose")],
    "jets.det": [("jets", "jet_det")],
    "jets.solve": [("jets", "jet_solve")],
    "expr.eval": [("expr", "eval_expr"), ("expr", "eval_jet"), ("expr", "eval_scalar")],
    "expr.derivative": [("expr", "derivative")],
    "frame.build": [("frame", "FrameFields.__init__")],
    "frame.structure_jets": [("frame", "FrameFields.structure_jets")],
    "envelope.mesh": [("envelope", "envelope_mesh")],
    "envelope.write": [("envelope", "write_ply"), ("envelope", "write_obj")],
    "singular.classify": [("singular", "classify_envelope_point")],
    "singular.germ_jet": [("singular", "germ_jet")],
    "singular.classify_germ": [("singular", "classify_germ")],
    "singular.versality": [("singular", "versality_matrix"),
                           ("singular", "_versality_heuristic")],
    "curve.table": [("curve", "invariants_table")],
    "curve.adapt": [("curve", "adapt_parameterization")],
    "curve.invariants": [("curve", "curve_invariants")],
    "curve.singularity": [("curve", "curve_singularity")],
    "metricbundle.bundle": [("metricbundle", "BundleFields.__init__")],
    "metricbundle.tau_form": [("metricbundle", "tau_form")],
    "metricbundle.parallel": [("metricbundle", "parallel_field_exists")],
    "metricbundle.metric": [("metricbundle", name) for name in (
        "affine_metric", "affine_normal_plane", "apolarity_defect",
        "equiaffine_defect", "normal_curvature", "blaschke_compatibility")],
    "transon.monge": [("transon", "monge_frame")],
    "transon.report": [("transon", "transon_report")],
}


def _point_key(scene, t):
    return scene.name, tuple(np.atleast_1d(np.asarray(t, dtype=float)).tolist())


class Tracer:
    """Span recorder plus the per-layer counters read at span boundaries."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.names = list(LAYERS)
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.open = [0] * len(self.names)
        self.mul_shapes = Counter()  # (space, result order) -> multiplies
        self.keys = {name: [] for name in (
            "frame.build", "metricbundle.bundle", "transon.monge", "expr.derivative")}
        self.mesh_vertices = 0
        self.write_bytes = 0
        self._patches = []

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn):
        nid = self.names.index(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack, is_open, clock = self.stack, self.open, time.perf_counter_ns
        after = self._after_hooks().get(name)

        def traced(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            is_open[nid] = 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                is_open[nid] = 0
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_hooks(self):
        keys = self.keys

        def mul(args, result):
            if result is not NotImplemented:
                self.mul_shapes[(result.space, result.order)] += 1

        def mesh(args, result):
            self.mesh_vertices += len(result.vertices)

        def write(args, result):
            self.write_bytes += os.path.getsize(args[1])

        return {
            "jets.mul": mul,
            "frame.build": lambda args, _: keys["frame.build"].append(
                _point_key(args[1], args[2])),
            "metricbundle.bundle": lambda args, _: keys["metricbundle.bundle"].append(
                _point_key(args[1], args[2])),
            "transon.monge": lambda args, _: keys["transon.monge"].append(
                _point_key(args[0], args[1])),
            "expr.derivative": lambda args, _: keys["expr.derivative"].append(
                (args[0], args[1])),
            "envelope.mesh": mesh,
            "envelope.write": write,
        }

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap every layer entry point of the loaded darboux modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "darboux" or name.startswith("darboux."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[f"darboux.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(owner, attr)
                traced = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.int64(self.pass_id),
        )

    def summary(self):
        """Per-name calls, inclusive and self seconds, plus layer counters."""
        names = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_dur = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k) * 1e-9
        self_s = np.bincount(names, weights=self_dur, minlength=k) * 1e-9
        spans = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(self_s[i])}
                 for i, name in enumerate(self.names)}

        useful = executed = 0
        for (space, order), count in self.mul_shapes.items():
            degrees = space.degrees
            useful += count * int(np.count_nonzero(
                degrees[space.mul_i] + degrees[space.mul_j] <= order))
            executed += count * len(space.mul_i)

        def distinct(keys):
            return len(set(keys)) / len(keys) if keys else 0.0

        return {
            "spans": spans,
            "span_count": len(dur),
            "mul_useful_pairs": useful,
            "mul_pairs": executed,
            "distinct_ratio": {name: distinct(keys) for name, keys in self.keys.items()},
            "mesh_vertices": self.mesh_vertices,
            "write_bytes": self.write_bytes,
        }
