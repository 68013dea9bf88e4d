"""In-memory spans around geodesy's public functions, for the traced run.

``Tracer.install`` replaces each target function by a wrapper at module or
class attribute level, in every loaded ``geodesy`` module that bound the
function (``from .ladder import verify_theorem`` binds a second name), so
calls the program makes internally pass through the wrappers too.  A span
is ``[name, start, end, parent, run_id]``; garbage collections are spans
named ``python.gc`` opened from ``gc.callbacks``, so collector time is
subtracted from the self time of the span it interrupted.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute) pairs; a dotted attribute names a class method.
TARGETS = [
    ("weights", "enumerate_weight_data"),
    ("ladder", "derive_constraints"),
    ("ladder", "eliminate"),
    ("ladder", "verify_theorem"),
    ("ladder", "replay_certificate"),
    ("ladder", "verify_witness"),
    ("candidates", "load_candidate"),
    ("candidates", "lift_classification"),
    ("cli", "run"),
    ("cli", "cmd_classify"),
    ("gaussmat", "GaussMatrix.__matmul__"),
    ("gaussmat", "GaussMatrix.inverse"),
    ("gaussmat", "bracket"),
    ("gaussmat", "char_poly"),
    ("gaussmat", "integer_spectrum"),
    ("algebra", "cartan_decompose"),
    ("algebra", "complex_structure"),
    ("checker", "check_conditions"),
    ("checker", "equivariance_test"),
    ("checker", "h_weight_analysis"),
    ("numeric", "minimize"),
    ("numeric", "gradient_check"),
    ("numeric", "_descend"),
]

GC_SPAN = "python.gc"
OP_SPAN = "bench.op"  # the root of each timed operation


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.run_id = 0
        self.yields: dict = defaultdict(int)
        self.rules: dict = defaultdict(int)
        self.descend_iterations = 0
        self._gc_span = None

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1], self.run_id]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self.open(GC_SPAN)
        elif self._gc_span is not None:
            self.close(self._gc_span)
            self._gc_span = None

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(rec)
                    self.yields[name] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            self._count(name, result)
            return result

        return call

    def _count(self, name: str, result) -> None:
        if name == "ladder.eliminate":
            for step in result.certificate:
                self.rules[step.rule] += 1
        elif name == "numeric._descend":
            self.descend_iterations += result[2]

    # -- installation ----------------------------------------------------

    def install(self) -> list:
        """Wrap every target that exists; return the targets that do not."""
        modules = [m for n, m in list(sys.modules.items()) if n == "geodesy" or n.startswith("geodesy.")]
        missing = []
        for mod_name, attr in TARGETS:
            module = sys.modules.get(f"geodesy.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            span = f"{mod_name}.{attr.split('.')[-1]}"
            wrapped = self.wrap(span, original)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        selftest = sys.modules.get("geodesy.selftest")
        checks = getattr(selftest, "CHECKS", [])
        for i, (check_name, fn) in enumerate(checks):
            checks[i] = (check_name, self.wrap(selftest_span(check_name), fn))
        gc.callbacks.append(self._on_gc)
        return missing

    def stop(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reports ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Only spans inside a timed operation count: a collection that runs
        between operations belongs to the benchmark, not to the program.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent < 0 and name != OP_SPAN:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")


def selftest_span(check_name: str) -> str:
    return "selftest." + check_name.replace(" ", "_")
