"""Spans and counts around the public calls of every ``otlab`` layer.

The tracer wraps functions from outside the package: each public function
of the six modules, ``DiskMesh.locate``, and the two solver entry points
as the modules see them (``scipy.optimize.linprog`` inside
``otlab.transport`` and ``splu`` inside ``otlab.neumann``).  Wrapping
swaps every binding of the original function in the package namespaces,
so calls between modules are traced too, and ``uninstall`` restores them.

A span's ``s`` is its inclusive duration; a layer's ``self_s`` sums the
durations of its spans minus the time their child spans cover, so the
self times of all layers add up to the time under top-level spans.
"""
from __future__ import annotations

import collections
import functools
import hashlib
import time
import types

import numpy as np

import otlab
from otlab import costs, measures, meshing, neumann, trajectories, transport

LAYERS = {
    "costs": costs,
    "measures": measures,
    "meshing": meshing,
    "neumann": neumann,
    "trajectories": trajectories,
    "transport": transport,
}
_NAMESPACES = (otlab,) + tuple(LAYERS.values())


def _points(z) -> int:
    shape = np.shape(z)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _count_solve_exact(args, plan):
    lam, mu = args[:2]
    return {"matrix_entries": lam.n_atoms * mu.n_atoms, "support": plan.n_entries}


def _key_solve_exact(args):
    lam, mu, spec = args[:3]
    return _digest(lam.points, lam.weights, mu.points, mu.weights,
                   np.frombuffer(repr(spec.to_dict()).encode(), np.uint8))


def _count_holder(args, _):
    phi, _, ball = args[:3]
    k = int(np.sum(np.linalg.norm(phi.mesh.nodes - ball.center, axis=1) <= ball.radius))
    return {"pairs": k * (k - 1) // 2}


# extra counts per traced name: (args, result) -> {count: increment}
_COUNTERS = {
    "transport.solve_exact": _count_solve_exact,
    "transport.linprog": lambda a, res: {"iterations": int(res.nit)},
    "trajectories.select_radius": lambda a, sel: {"candidates": len(sel.scores)},
    "meshing.build_mesh": lambda a, mesh: {"nodes": mesh.n_nodes},
    "meshing.DiskMesh.locate": lambda a, idx: {"points": len(idx)},
    "neumann.splu": lambda a, lu: {"fill_nnz": lu.L.nnz + lu.U.nnz},
    "neumann.holder_product_check": _count_holder,
    "costs.cost_eval": lambda a, _: {"points": _points(a[1])},
    "costs.dual_grad": lambda a, _: {"points": _points(a[1])},
}

# names whose repeated inputs within one instance are counted
_REPEAT_KEYS = {"transport.solve_exact": _key_solve_exact}


class Tracer:
    """In-memory span recorder; one ``instance`` block per benchmark instance."""

    def __init__(self):
        self.instances = []
        self._stack = []
        self._current = None
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin(self, label):
        self._current = {"label": label, "stats": collections.defaultdict(
            lambda: collections.defaultdict(float)), "self_s": collections.defaultdict(float),
            "top_s": 0.0, "spans": [], "seen": set(), "t0": time.perf_counter()}

    def end(self):
        cur, self._current = self._current, None
        cur["wall_s"] = time.perf_counter() - cur["t0"]
        del cur["seen"]
        self.instances.append(cur)

    def _call(self, name, layer, fn, args, kwargs):
        cur = self._current
        if cur is None:
            return fn(*args, **kwargs)
        stats = cur["stats"][name]
        repeat = False
        if name in _REPEAT_KEYS:
            key = _REPEAT_KEYS[name](args)
            repeat = key in cur["seen"]
            cur["seen"].add(key)
        # open span: [start, time covered by its children]
        span = [time.perf_counter(), 0.0]
        self._stack.append(span)
        try:
            out = fn(*args, **kwargs)
        except Exception:
            stats["errors"] += 1
            raise
        finally:
            dur = time.perf_counter() - span[0]
            self._stack.pop()
            stats["calls"] += 1
            stats["s"] += dur
            if repeat:
                stats["repeat_calls"] += 1
                stats["repeat_s"] += dur
            cur["self_s"][layer] += dur - span[1]
            if self._stack:
                self._stack[-1][1] += dur
            else:
                cur["top_s"] += dur
            cur["spans"].append((name, len(self._stack), span[0] - cur["t0"], dur))
        counter = _COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, out).items():
                stats[key] += value
        return out

    # -- installation ----------------------------------------------------

    def _wrap(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, fn, args, kwargs)
        return traced

    def _rebind(self, fn, traced):
        for ns in _NAMESPACES:
            for attr, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, attr, traced)
                    self._undo.append((ns, attr, fn))

    def install(self):
        for layer, mod in LAYERS.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    self._rebind(fn, self._wrap(f"{layer}.{name}", layer, fn))
        locate = meshing.DiskMesh.locate
        meshing.DiskMesh.locate = self._wrap("meshing.DiskMesh.locate", "meshing", locate)
        self._undo.append((meshing.DiskMesh, "locate", locate))
        # solver entry points exactly as the calling modules bind them
        opt = transport.optimize
        transport.optimize = types.SimpleNamespace(
            linprog=self._wrap("transport.linprog", "transport", opt.linprog))
        self._undo.append((transport, "optimize", opt))
        splu = neumann.splu
        neumann.splu = self._wrap("neumann.splu", "neumann", splu)
        self._undo.append((neumann, "splu", splu))
        return self

    def uninstall(self):
        for ns, attr, val in reversed(self._undo):
            setattr(ns, attr, val)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
