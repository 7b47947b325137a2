"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each entry point listed in ENTRIES with a
wrapper, in every loaded graphfield module that binds it, so calls made
from inside the package are seen too.  A wrapper records only while its
entry is in `recording`: the benchmark records every entry around each
timed operation, and only SETUP_ENTRIES around the set-up calls whose
cost the per-layer table reports.  Spans are kept as per-entry
aggregates in memory: calls and self time, where self time is a span's
duration minus the time covered by its recorded child spans, multiplied
by `factor`, which the benchmark keeps at the current speed scale (see
speed.py).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, entry, module, attribute path)
ENTRIES = (
    ("fieldtower", "mul", "fieldtower", "TowerElement.__mul__"),
    ("fieldtower", "pow", "fieldtower", "TowerElement.__pow__"),
    ("fieldtower", "inv", "fieldtower", "TowerElement.inv"),
    ("fieldtower", "eq", "fieldtower", "TowerElement.__eq__"),
    ("roots", "pth_root", "roots", "pth_root"),
    ("roots", "valuation_vector", "roots", "valuation_vector"),
    ("roots", "specialization_refute", "roots", "specialization_refute"),
    ("ratfunc", "new", "ratfunc", "RatFunc._raw"),  # every arithmetic result; makes den monic
    ("ratfunc", "add", "ratfunc", "RatFunc.__add__"),
    ("ratfunc", "mul", "ratfunc", "RatFunc.__mul__"),
    ("ratfunc", "div", "ratfunc", "RatFunc.__truediv__"),
    ("ratfunc", "pth_root", "ratfunc", "RatFunc.pth_root"),
    ("polynomials", "mul", "polynomials", "Poly.__mul__"),
    ("polynomials", "pow", "polynomials", "Poly.__pow__"),
    ("polynomials", "gcd", "polynomials", "Poly.gcd"),
    ("polynomials", "divexact", "polynomials", "Poly.divexact"),
    ("polynomials", "pth_root", "polynomials", "Poly.pth_root"),
    ("modgcd", "int_gcd", "_modgcd", "int_gcd"),  # metric names may not start with _
    ("coeffs", "pth_root", "coeffs", "CoeffField.pth_root"),
    ("autfield", "encode_element", "autfield", "encode_element"),
    ("autfield", "apply", "autfield", "apply"),
    ("graphs", "transform", "graphs", "transform"),
    ("graphs", "aut_graph", "graphs", "aut_graph"),
    ("graphs", "connected_graphs_up_to_iso", "graphs", "connected_graphs_up_to_iso"),
    ("groups", "aut_group", "groups", "aut_group"),
    ("groups", "closure", "groups", "closure"),
    ("groups", "psl2", "groups", "psl2"),
)

ALL_ENTRIES = frozenset(f"{layer}.{entry}" for layer, entry, _, _ in ENTRIES)
SETUP_ENTRIES = frozenset({"graphs.connected_graphs_up_to_iso", "groups.psl2"})

# Counts read off an entry's result: (layer.entry, counter name, value of one result).
RESULT_COUNTERS = {
    "roots.pth_root": ("roots.pth_root.unknown", lambda r: r.outcome == "unknown"),
    "polynomials.gcd": ("polynomials.gcd.nontrivial", lambda g: not g.is_one()),
    "autfield.encode_element": ("autfield.encode_element.sequences", lambda c: len(c.sequences)),
    "graphs.aut_graph": ("graphs.aut_graph.elements", lambda g: g.order),
}


class Tracer:
    def __init__(self):
        self.recording = frozenset()
        self.factor = 1.0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {name: 0 for name, _ in RESULT_COUNTERS.values()}
        self._stack: list[list[float]] = []

    def install(self) -> None:
        for modname in {modname for _, _, modname, _ in ENTRIES}:
            importlib.import_module(f"graphfield.{modname}")  # _modgcd loads lazily
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "graphfield" or name.startswith("graphfield."))]
        for layer, entry, modname, path in ENTRIES:
            key = f"{layer}.{entry}"
            self.calls[key] = 0
            self.self_s[key] = 0.0
            module = sys.modules[f"graphfield.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                method = cls.__dict__[attr]
                if isinstance(method, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(method.__func__, key)))
                else:
                    setattr(cls, attr, self._wrap(method, key))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, key)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, fn, key: str):
        counter = RESULT_COUNTERS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key not in self.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                self.calls[key] += 1
                self.self_s[key] += (span - frame[0]) * self.factor
            if counter is not None:
                self.counters[counter[0]] += counter[1](out)
            return out

        return wrapper

    def metrics(self, import_s: float) -> dict:
        out = {"package.import_s": {"value": import_s, "unit": "s"}}
        for key in self.calls:
            out[f"{key}.calls"] = {"value": self.calls[key], "unit": "count"}
            out[f"{key}.self_s"] = {"value": self.self_s[key], "unit": "s"}
        for name, value in self.counters.items():
            out[name] = {"value": value, "unit": "count"}
        return out
