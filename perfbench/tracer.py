"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the finestruct modules from outside:
every module of the package that bound a traced function by name gets the
wrapper, and every original is put back when the traced block ends.  Each
wrapped call records a span (name, start, end, parent span, run id) in
compact arrays held in memory; they are reduced to per-function statistics
and written to a file once the run ends.

Counts made here (calls, madds, blade pairs, leaf evaluations, nodes) are
computed from the call arguments, so they repeat exactly between runs of the
same code and seed.  No layer has a queue or a lock, so there is no time
spent waiting to record.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, qualified name) of every traced function.  A class attribute is
# written "Class.method"; its metric name uses the short form in METHOD_NAMES.
TRACED = (
    ("clifford_core", "mv_mul"),
    ("slice_poly", "to_canonical"),
    ("slice_poly", "eval_slice_poly"),
    ("slice_poly", "canonical_eval"),
    ("fueter_ops", "apply_word"),
    ("fueter_ops", "monomial_image"),
    ("fueter_ops", "fd_apply"),
    ("kernels", "cauchy_kernel"),
    ("kernels", "fine_kernel"),
    ("kernels", "fine_kernel_series"),
    ("kernels", "fine_kernel_via_f5"),
    ("kernels", "pseudo_kernel"),
    ("contour", "circle"),
    ("contour", "slice_integral"),
    ("contour", "fine_integral_eval"),
    ("contour", "word_eval"),
    ("op_calculus", "CliffordMatrix.__mul__"),
    ("op_calculus", "q_resolvent"),
    ("op_calculus", "fine_resolvent"),
    ("op_calculus", "fine_resolvent_series"),
    ("op_calculus", "poly_calculus_integral"),
    ("op_calculus", "poly_calculus_exact"),
    ("op_calculus", "canonical_operator_eval"),
    ("op_calculus", "s_spectrum"),
)

METHOD_NAMES = {"CliffordMatrix.__mul__": "CliffordMatrix.mul"}

# Extra counters, keyed by the span name they belong to.
COUNTERS = {
    "clifford_core.mv_mul": ("madds",),
    "op_calculus.CliffordMatrix.mul": ("blade_pairs", "flops"),
    "fueter_ops.fd_apply": ("leaf_evals", "distinct_points"),
    "contour.slice_integral": ("nodes",),
}

CONSTRUCTIONS = "clifford_core.Multivector.constructions"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{METHOD_NAMES.get(qualname, qualname)}"


def _nonzero_blades(a: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(a).max(axis=(1, 2))))


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names = [span_name(m, q) for m, q in TRACED]
        self._sid = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.calls = [0] * len(self.names)
        self.counts = {f"{name}.{c}": 0 for name, cs in COUNTERS.items()
                       for c in cs}
        self.counts[CONSTRUCTIONS] = 0
        self._active = [0] * len(self.names)
        self._stack = [-1]

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        sid = self._sid[name]
        active, stack, calls = self._active, self._stack, self.calls
        name_id, parent, run = self.name_id, self.parent, self.run
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            top = not active[sid]
            done = None
            if hook is not None:
                hooked = hook(args, top)
                if hooked is not None:
                    args, done = hooked
            calls[sid] += top
            active[sid] += 1
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            run.append(self.run_id)
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[sid] -= 1
                if done is not None:
                    done()

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        from finestruct.clifford_core import Multivector
        from finestruct.op_calculus import CliffordMatrix

        counts = self.counts

        def mv_mul(args, top):
            counts["clifford_core.mv_mul.madds"] += (
                int(np.count_nonzero(args[0].c)) * 32)

        def cm_mul(args, top):
            a, b = args
            if isinstance(b, CliffordMatrix):
                nb = _nonzero_blades(b.a)
            elif isinstance(b, Multivector):
                nb = int(np.count_nonzero(b.c))
            else:
                return None
            pairs = _nonzero_blades(a.a) * nb
            d = a.a.shape[1]
            counts["op_calculus.CliffordMatrix.mul.blade_pairs"] += pairs
            counts["op_calculus.CliffordMatrix.mul.flops"] += pairs * 2 * d ** 3

        def fd_apply(args, top):
            # Only the outermost call sees the caller's function; the nested
            # calls of a composed word receive the counting wrapper below.
            if not top:
                return None
            f = args[1]
            points = set()

            def leaf(y):
                counts["fueter_ops.fd_apply.leaf_evals"] += 1
                points.add(y.c.tobytes())
                return f(y)

            def done():
                counts["fueter_ops.fd_apply.distinct_points"] += len(points)

            return (args[0], leaf) + tuple(args[2:]), done

        def slice_integral(args, top):
            counts["contour.slice_integral.nodes"] += len(args[1].nodes)

        return {
            "clifford_core.mv_mul": mv_mul,
            "op_calculus.CliffordMatrix.mul": cm_mul,
            "fueter_ops.fd_apply": fd_apply,
            "contour.slice_integral": slice_integral,
        }

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function in every finestruct module that bound
        it; restore every original on exit."""
        import finestruct.harness  # noqa: F401  (binds the names it imports)
        from finestruct.clifford_core import Multivector

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "finestruct" or name.startswith("finestruct.")]
        hooks = self._hooks()
        patches = []
        try:
            for module, qualname in TRACED:
                name = span_name(module, qualname)
                owner = sys.modules[f"finestruct.{module}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[attr]
                    patches.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, hooks.get(name)))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

            init = vars(Multivector)["__init__"]
            counts = self.counts

            def counted_init(obj, coeffs=None):
                counts[CONSTRUCTIONS] += 1
                init(obj, coeffs)

            patches.append((Multivector, "__init__", init))
            Multivector.__init__ = counted_init
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy views (parent -1 marks a root); record
        nothing more while a view is alive."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run_id": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per traced function: top-level calls and self time in seconds;
        plus the extra counters and the time covered by root spans."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=dur[child],
                              minlength=len(dur))
        own = np.bincount(s["name_id"], weights=dur - covered,
                          minlength=len(self.names))
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": {n: float(t) for n, t in zip(self.names, own)},
            "counts": dict(self.counts),
            "root_s": float(dur[~child].sum()),
            "spans": int(len(dur)),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
