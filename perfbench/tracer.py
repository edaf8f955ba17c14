"""Spans recorded around the program's public functions, from outside it.

``Tracer.install()`` rebinds each traced function in every module namespace
that calls it (``simulate`` and ``steady_state`` import ``power_flow`` and
friends by name, so patching ``mgshare.network`` alone would miss them) and
restores the originals on exit. A span is (name, parent span, start, end);
spans live in flat arrays and are summarised or written out only after the
run, so recording one costs two clock reads and four appends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name); one span name may be bound in several modules
PATCHES = (
    ("network", "kron_reduce", "network.kron_reduce"),
    ("network", "power_flow", "network.power_flow"),
    ("network", "jacobians", "network.jacobians"),
    ("simulate", "kron_reduce", "network.kron_reduce"),
    ("simulate", "power_flow", "network.power_flow"),
    ("simulate", "simulate", "simulate.simulate"),
    ("steady_state", "power_flow", "network.power_flow"),
    ("steady_state", "jacobians", "network.jacobians"),
    ("steady_state", "solve_equilibrium", "steady_state.solve_equilibrium"),
    ("steady_state", "verify_properties", "steady_state.verify_properties"),
    ("stability", "assemble_blocks", "stability.assemble_blocks"),
    ("stability", "solve_lmi", "stability.solve_lmi"),
    ("stability", "boundary_layer_check", "stability.boundary_layer_check"),
    ("stability", "epsilon_sweep", "stability.epsilon_sweep"),
    ("tuning", "tune", "tuning.tune"),
    ("tuning", "validate", "tuning.validate"),
)


def module(name: str):
    # the package attribute ``mgshare.simulate`` is the function, not the module
    return importlib.import_module(f"mgshare.{name}")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.segments: list[dict] = []     # one entry per solve_ivp call

    def reset(self):
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self._stack[:] = [-1]
        self.segments.clear()

    def wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _traced_solve_ivp(self, solve_ivp):
        integrate = self.wrap("simulate.integrate", solve_ivp)

        def traced(fun, t_span, y0, **kwargs):
            t0 = time.perf_counter()
            sol = integrate(self.wrap("simulate.rhs", fun), t_span, y0, **kwargs)
            self.segments.append({
                "t_span": [float(t_span[0]), float(t_span[1])],
                "method": kwargs.get("method", "RK45"),
                "wall_s": time.perf_counter() - t0,
                "nfev": int(sol.nfev), "njev": int(sol.njev), "nlu": int(sol.nlu),
                "accepted_steps": int(sol.t.size - 1),
            })
            return sol

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for mod_name, attr, span in PATCHES:
                mod = module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
            sim = module("simulate")
            saved.append((sim, "solve_ivp", sim.solve_ivp))
            sim.solve_ivp = self._traced_solve_ivp(sim.solve_ivp)
            saved.append((sim.TimeSeries, "to_csv", sim.TimeSeries.to_csv))
            sim.TimeSeries.to_csv = self.wrap("simulate.to_csv", sim.TimeSeries.to_csv)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def arrays(self):
        # copies: a view would pin the buffers and block later appends
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per (name, caller): calls, seconds."""
        name, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        caller = np.where(nested, name[np.maximum(parent, 0)], -1)
        out = {"spans": int(dur.size), "by_name": {}, "by_caller": defaultdict(dict)}
        for nid, span in enumerate(self.names):
            sel = name == nid
            out["by_name"][span] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                                    "self_s": float(self_s[sel].sum())}
            for cid in np.unique(caller[sel]):
                both = sel & (caller == cid)
                parent_span = self.names[cid] if cid >= 0 else "benchmark"
                out["by_caller"][span][parent_span] = {
                    "calls": int(both.sum()), "s": float(dur[both].sum())}
        out["by_caller"] = dict(out["by_caller"])
        out["segments"] = list(self.segments)
        return out

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)
