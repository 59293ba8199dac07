"""Spans around the public functions of each layer of ``bicomplex``.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (name, start, end, parent span, run id) in memory and accumulates
call counts and self time (duration minus the time of child spans).  The
package binds some functions by name at import (``from ._arrays import
hat_split``), so every module-level binding of a traced function is
replaced, not only the defining one.  ``numpy.linalg`` calls are counted
only when a program span is open, so the benchmark's own reference
computations never count.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: Traced methods: (module, class, {attribute: span name}).  Aliases such as
#: ``TMatrix.__call__ = apply`` carry the name of the method they alias.
CLASS_METHODS = [
    ("operators", "TMatrix", {
        "apply": "operators.apply", "__call__": "operators.apply", "solve": "operators.solve",
        "norms": "operators.norms", "compose": "operators.compose", "__matmul__": "operators.compose",
        "invert": "operators.invert", "det": "operators.det",
        "component_singular_values": "operators.component_singular_values", "to_json": "operators.to_json",
    }),
    ("tmodule", "TVector", {
        "scale": "tmodule.scale", "norm": "tmodule.norm", "split": "tmodule.split",
        "from_split": "tmodule.from_split", "to_json": "tmodule.to_json",
    }),
    ("tmodule", "Submodule", {"__init__": "tmodule.submodule_init", "distance_to": "tmodule.distance_to"}),
    ("functionals", "TFunctional", {"__call__": "functionals.evaluate"}),
    ("scalar", "Bicomplex", {
        "__mul__": "scalar.mul", "__rmul__": "scalar.mul", "inverse": "scalar.inverse", "classify": "scalar.classify",
    }),
]

#: Traced module-level functions: (defining module, attribute, span name).
FUNCTIONS = [
    ("_arrays", "hat_split", "arrays.hat_split"),
    ("_arrays", "hat_merge", "arrays.hat_merge"),
    ("_arrays", "mul4", "arrays.mul4"),
    ("functionals", "hahn_banach_extend", "functionals.hahn_banach_extend"),
    ("functionals", "separating_functional", "functionals.separating_functional"),
    ("verifier", "run_check", "verifier.run_check"),
    ("cli", "main", "cli.main"),
]

LINALG = ("svd", "solve", "det", "inv")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.run_id = None
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        linalg = name.startswith("linalg.")
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if linalg and (not stack or stack[-1][0].startswith("linalg.")):
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [name, len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[frame[1]] = (name, start, end, parent, self.run_id)
                if stack:
                    stack[-1][2] += duration
                calls[name] += 1
                self_s[name] += duration - frame[2]

        return traced

    def _patch(self, owner, attr: str, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package_name: str = "bicomplex"):
        modules = [m for k, m in list(sys.modules.items()) if k == package_name or k.startswith(package_name + ".")]
        by_module = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module_name, class_name, attrs in CLASS_METHODS:
            cls = getattr(by_module[module_name], class_name)
            for attr, name in attrs.items():
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, original.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, original))
        for module_name, attr, name in FUNCTIONS:
            original = getattr(by_module[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap("linalg." + attr, getattr(np.linalg, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
