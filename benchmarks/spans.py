"""Spans and work counters recorded from outside the program.

`Tracer.install()` replaces the public functions of `rootsys`, `chars`,
`siiclass`, `conncalc` and `cli`, plus the methods listed in `METHODS`,
with wrappers that record one span per call: name, start, end, parent span
and the benchmark item it belongs to.  `siiclass` and `cli` bind names such
as `tensor` and `PlethysmOps` at import, so every module-level name that
refers to a wrapped function is rebound, not only the defining one.

Hot per-weight helpers (`RootSystem.to_dominant`, `_ip_int`, `height`, ...)
are not wrapped: a wrapper costs about as much as one of their calls, and
their time shows up as the self time of the function that calls them.

Spans stay in memory until `dump` writes them out.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("rootsys", "chars", "siiclass", "conncalc", "cli")

# (module, class, method pattern) -> span name.  Several methods may share a
# span name: the three O(support) convolution queries are `chars.point_query`
# and every multiplicity extraction is `chars.mult`.
METHODS = {
    ("rootsys", "RootSystem", "__init__"): "rootsys.RootSystem",
    ("rootsys", "RootSystem", "weyl_orbit"): "rootsys.weyl_orbit",
    ("rootsys", "RootSystem", "signed_orbit"): "rootsys.signed_orbit",
    ("chars", "PlethysmOps", "__init__"): "chars.PlethysmOps.init",
    ("chars", "PlethysmOps", "cube_at"): "chars.point_query",
    ("chars", "PlethysmOps", "chi_psi2_at"): "chars.point_query",
    ("chars", "PlethysmOps", "chi_alt2_at"): "chars.point_query",
    ("chars", "PlethysmOps", "mult_in_*"): "chars.mult",
    ("conncalc", "MatrixAlgebra", "bilinear_coeffs"): "conncalc.bilinear_coeffs",
}
RENAMES = {"chars.multiplicity": "chars.mult"}

# Work counters: span name -> [(counter, f(args, result))].  Arguments are
# taken positionally, as every caller in the program passes them.
COUNTS = {
    "rootsys.signed_orbit": [("points", lambda a, r: len(r))],
    "rootsys.weyl_orbit": [("points", lambda a, r: len(r))],
    "chars.point_query": [("terms", lambda a, r: len(a[0]._items))],
    "chars.PlethysmOps.init": [("square_support", lambda a, r: len(a[0]._sq))],
    "chars.tensor": [("pairs", lambda a, r: len(a[0].mult) * len(a[1].mult))],
    "chars.decompose": [("terms", lambda a, r: len(r)),
                        ("input_support", lambda a, r: len(a[0].mult))],
    "siiclass.classify": [("skipped", lambda a, r: r.status.startswith("skipped"))],
    # Computed sizes of the float64 d^4 arrays: the three Jacobi terms of the
    # algebra build and the three curvature terms.
    "conncalc.build_algebra": [("bytes", lambda a, r: 3 * 8 * r.dim ** 4)],
    "conncalc.curvature": [("bytes", lambda a, r: 3 * 8 * a[1].shape[0] ** 4)],
    "conncalc.bilinear_coeffs": [("matmuls", lambda a, r: a[0].dim ** 2)],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, summed child duration]
        self.current_item = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._irreps_seen: set = set()

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> None:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        dur = end - self.start[idx]
        self.end[idx] = end
        name = self.names[self.name_id[idx]]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        counts = COUNTS.get(name, [])
        if name == "chars.irrep_character":
            counts = [("repeats", self._irrep_repeat)]
        counts = [(f"{name}.{key}", f) for key, f in counts]
        counters, open_, close = self.counters, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            for key, f in counts:
                counters[key] += f(args, result)
            return result

        return traced

    def _irrep_repeat(self, args, result) -> int:
        key = (args[0], tuple(args[1]))  # root systems hash by identity
        seen = key in self._irreps_seen
        self._irreps_seen.add(key)
        return seen

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"invconn.{mod_name}")
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{mod_name}.{attr}"
                    wrapped[value] = self.wrap(RENAMES.get(name, name), value)
        for (mod_name, cls_name, pattern), name in METHODS.items():
            cls = getattr(importlib.import_module(f"invconn.{mod_name}"), cls_name, None)
            for attr, value in list(vars(cls).items()) if cls else ():
                if fnmatch.fnmatchcase(attr, pattern) and inspect.isfunction(value):
                    setattr(cls, attr, self.wrap(name, value))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "invconn" or mod_name.startswith("invconn."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(mod, attr, wrapped[value])

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "spans": len(self.start)}

    def dump(self, path) -> None:
        doc = {"names": self.names, "columns": ["name", "parent", "item", "start", "end"],
               "rows": [list(row) for row in zip(self.name_id, self.parent, self.item,
                                                 self.start, self.end)],
               "summary": self.summary()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
