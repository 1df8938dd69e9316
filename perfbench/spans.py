"""In-memory span tracing around the program's layer boundaries.

The tracer wraps names of the dropflow modules from outside: it rebinds
each public function, and a fixed list of methods and imported kernels,
to a wrapper that records one span (name, start, end, parent span, op id)
per call while tracing is active.  Nothing in the program changes.  A name
missing from the program records zero calls, so the same tracer runs on
commits that deleted or renamed functions.

Self time is a span's duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np

# Layers, in the order their metrics are printed; `matcalc` is on no
# user command's path and is left out.
LAYERS = ("torsion", "geometry", "spectral", "dynamics", "identities",
          "stability", "config", "cli")


def _count_rows(pos):
    """Pre hook: add the number of points (rows) of argument `pos`."""
    def pre(tracer, name, args, kwargs):
        tracer.add(name + ".points", int(np.atleast_2d(np.asarray(args[pos])).shape[0]))
    return pre


def _count_size(pos):
    """Pre hook: add the number of values in argument `pos`."""
    def pre(tracer, name, args, kwargs):
        tracer.add(name + ".points", int(np.size(args[pos])))
    return pre


# Computed LAPACK work on the M x M boundary matrix, labelled "computed"
# because it ignores caches: 2/3 M^3 flops per factorisation, and 8 M^2
# bytes per pass over the matrix (getrf reads and writes it; gecon and
# getrs read the factors once).
def _lu_factor_work(tracer, name, args, kwargs):
    m = int(np.shape(args[0])[0])
    tracer.add(name + ".flop_count", 2.0 / 3.0 * m**3)
    tracer.add(name + ".bytes_computed", 16 * m * m)


def _lu_read_work(tracer, name, args, kwargs):
    lu = args[0][0] if isinstance(args[0], tuple) else args[0]
    m = int(np.shape(lu)[0])
    tracer.add(name + ".bytes_computed", 8 * m * m)


def _count_nfev(tracer, name, args, kwargs, result, parent):
    if parent is not None:
        tracer.add(parent + ".nfev", int(result.nfev))


def _count_bytes(tracer, name, args, kwargs, result, parent):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer.add(name + ".bytes", os.path.getsize(path))


def _count_steps(tracer, name, args, kwargs, result, parent):
    tracer.add("dynamics.steps_accepted", len(result.times) - 1)


# Explicit targets: (span name, owner path, attribute, rebind scope, pre, post).
# Scope "class" patches the class attribute, "property" its getter, "module"
# only the named module's binding (an import such as scipy's lu_factor).
EXPLICIT = (
    ("geometry.StarDomain", "geometry.StarDomain", "__init__", "class", None, None),
    ("geometry.recentered", "geometry.StarDomain", "recentered", "class", None, None),
    ("geometry.in_radius", "geometry.StarDomain", "in_radius", "property", None, None),
    ("geometry.contains", "geometry.StarDomain", "contains", "class", _count_rows(1), None),
    ("geometry.boundary_distance", "geometry.StarDomain", "boundary_distance", "class",
     _count_rows(1), None),
    ("torsion.quadrature_data", "torsion.TorsionSolution", "quadrature_data", "class",
     None, None),
    ("torsion.eval_interior", "torsion.TorsionSolution", "eval_interior", "class",
     _count_rows(1), None),
    ("torsion.lu", "torsion", "lu_factor", "module", _lu_factor_work, None),
    ("torsion.lu", "torsion", "dgecon", "module", _lu_read_work, None),
    ("torsion.lu", "torsion", "lu_solve", "module", _lu_read_work, None),
    ("geometry.minimize", "geometry", "minimize", "module", None, _count_nfev),
    ("stability.minimize", "stability", "minimize", "module", None, _count_nfev),
    ("cli.io", "cli", "save_timeseries_csv", "module", None, _count_bytes),
    ("cli.io", "cli", "save_domain_csv", "module", None, _count_bytes),
    ("cli.io", "cli", "write_sweep_csv", "module", None, _count_bytes),
)

# Hooks on generically wrapped public functions.
HOOKS = {
    "spectral.eval_at_angles": (_count_size(1), None),
    "dynamics.run_flow": (None, _count_steps),
}

# Spans named after the layer that calls them rather than the one defining
# them: rho0_estimate is a geometry function bound in stability.
RENAMES = {("geometry", "rho0_estimate"): "stability.rho0_estimate"}


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names = []
        self._ids = {}
        self.name_id = []
        self.t0 = []
        self.t1 = []
        self.parent = []
        self.op = []
        self.errors = {}
        self.counters = {}
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def record(self, name, t0, t1, parent=-1, op=0):
        """Append a span; returns its index."""
        idx = len(self.t0)
        self.name_id.append(self._nid(name))
        self.t0.append(t0)
        self.t1.append(t1)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def wrap(self, name, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if pre is not None:
                pre(tracer, name, args, kwargs)
            idx = tracer.record(name, 0.0, 0.0, parent, tracer.op_id)
            stack.append(idx)
            tracer.t0[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] = tracer.errors.get(name, 0) + 1
                raise
            finally:
                tracer.t1[idx] = time.perf_counter()
                stack.pop()
            if post is not None:
                pname = tracer.names[tracer.name_id[parent]] if parent >= 0 else None
                post(tracer, name, args, kwargs, result, pname)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layers of `package` (the imported dropflow package)."""
        modules = [package] + [getattr(package, n) for n in LAYERS if hasattr(package, n)]
        claimed = {name for name, *_ in EXPLICIT}
        for layer in LAYERS:
            mod = getattr(package, layer, None)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = RENAMES.get((layer, attr), f"{layer}.{attr}")
                if name in claimed:
                    continue
                pre, post = HOOKS.get(name, (None, None))
                wrapped = self.wrap(name, obj, pre, post)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            self._set(m, key, wrapped)
        for name, owner_path, attr, scope, pre, post in EXPLICIT:
            layer, _, cls = owner_path.partition(".")
            owner = getattr(package, layer, None)
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                continue
            obj = vars(owner)[attr]
            if scope == "property":
                self._set(owner, attr, property(self.wrap(name, obj.fget, pre, post)))
            else:
                self._set(owner, attr, self.wrap(name, obj, pre, post))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ----------------------------------------------------------

    def arrays(self):
        t0 = np.asarray(self.t0, dtype=float)
        t1 = np.asarray(self.t1, dtype=float)
        return (np.asarray(self.name_id, dtype=np.int64), t0, t1,
                np.asarray(self.parent, dtype=np.int64), np.asarray(self.op, dtype=np.int64))

    def self_times(self):
        """Per span: duration minus the summed durations of its direct children."""
        _, t0, t1, parent, _ = self.arrays()
        dur = t1 - t0
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def summary(self):
        """{name: {calls, busy_s, self_s, errors}} over every recorded span."""
        nid, t0, t1, parent, _ = self.arrays()
        dur = t1 - t0
        selft = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "busy_s": float(dur[sel].sum()),
                         "self_s": float(selft[sel].sum()),
                         "errors": int(self.errors.get(name, 0))}
        return out

    def count_children(self, child, parent_name):
        """Spans named `child` whose direct parent is named `parent_name`."""
        nid, _, _, parent, _ = self.arrays()
        if child not in self._ids or parent_name not in self._ids:
            return 0
        sel = (nid == self._ids[child]) & (parent >= 0)
        return int((nid[parent[sel]] == self._ids[parent_name]).sum())

    def count_in_ops_with(self, name, marker):
        """Spans named `name` inside ops that also recorded a `marker` span."""
        nid, _, _, _, op = self.arrays()
        if name not in self._ids or marker not in self._ids:
            return 0
        marked = np.unique(op[nid == self._ids[marker]])
        return int(np.isin(op[nid == self._ids[name]], marked).sum())

    def save(self, path):
        nid, t0, t1, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, t0=t0, t1=t1,
                            parent=parent, op=op)
