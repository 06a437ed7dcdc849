"""Spans around octadesign's public functions, and the per-layer summary.

The child process installs the wrappers after importing octadesign: every
module attribute that refers to a listed function is replaced by one
wrapper, so a name imported directly (analysis.field_create,
wl.intersection_tensor) is traced as well as a module-qualified call.  A
listed class is traced through its __init__.  Spans stay in memory until
the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time


def _mulclose_attrs(args, kwargs, result):
    return {"elements": len(result)}


def _wl_attrs(args, kwargs, result):
    coloring = args[0] if args else kwargs["coloring"]
    return {"n": int(coloring.n), "colors_per_round": list(result.colors_per_round)}


ATTRS = {"pgroup.mulclose": _mulclose_attrs, "wl.wl_stabilize": _wl_attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # index of the CLI operation the spans belong to
        self._stack = []

    def wrap(self, name, func):
        attrs = ATTRS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "raised": False}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span["raised"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self, package, span_names):
        """Wrap every listed `<module>.<function>` of `package`."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name in span_names:
            mod_name, attr = name.split(".")
            orig = getattr(importlib.import_module(f"{package}.{mod_name}"), attr)
            if isinstance(orig, type):
                orig.__init__ = self.wrap(name, orig.__init__)
                continue
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def matmul_gflop(n, colors_per_round):
    """Computed, not measured: the products the dense WL rounds perform.

    A round on rank R multiplies n x n matrices R * ceil(R / pack) times,
    2 n^3 flop each, where pack is the count matrices per product (3 while
    (n+1)^3 n < 2^53, else 2).  The last entry of colors_per_round is the
    fixpoint's rank, which starts no round.
    """
    pack = 3 if (n + 1) ** 3 * n < 2**53 else 2
    return sum(r * math.ceil(r / pack) * 2 * n**3 for r in colors_per_round[:-1]) / 1e9


def summarize(spans, span_names):
    """Per-layer self time, calls and counts; self time excludes child spans."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for name in span_names:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    counts = {"pgroup.mulclose.elements": 0, "wl.rounds": 0, "wl.matmul_gflop": 0.0}
    for s in spans:
        out[f"{s['name']}.self_s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[f"{s['name']}.calls"] += 1
        if "elements" in s:
            counts["pgroup.mulclose.elements"] += s["elements"]
        if "colors_per_round" in s:
            counts["wl.rounds"] += len(s["colors_per_round"]) - 1
            counts["wl.matmul_gflop"] += matmul_gflop(s["n"], s["colors_per_round"])
    out.update(counts)
    return out
