"""Spans around the public functions of each trifree module, recorded from outside.

``Tracer.install`` replaces every module-level binding of each target
function in every loaded ``trifree`` module.  Consumers copy names with
``from .graph import canonical_form``, so patching the defining module alone
would miss the calls made from ``search``, ``recognition``, ``verify`` and
``properties``.  ``Graph`` constructions are counted by wrapping
``Graph.__init__``.  A generator such as ``find_induced_all`` is timed across
its ``next()`` calls: each resumption is one span, and the call is counted
once, when the generator is created.

Spans are kept in flat arrays (name, parent span, start, end, tag) while the
workload runs and written out at the end.  A function's self time is the
total of its spans minus the part covered by its direct child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

TARGETS = (
    "graph.Graph",
    "graph.canonical_form",
    "graph.isomorphic",
    "graph.relabel",
    "graph.twin_partition",
    "graph.quotient",
    "graph.blowup",
    "graph.find_induced_all",
    "graph.has_twin_property",
    "graph.automorphism_order",
    "properties.check_d",
    "properties.check_q",
    "properties.max_weight_independent_set",
    "properties.is_maximal_triangle_free",
    "recognition.recognize",
    "recognition.certify",
    "search.enumerate_maximal_tf",
    "search.census_row",
    "search.search_extremal",
    "verify.run_check",
    "formats.parse_graph",
    "cli.main",
)
ENUMERATE = TARGETS.index("search.enumerate_maximal_tf")
CANONICAL = TARGETS.index("graph.canonical_form")


class Tracer:
    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("i")  # order n for enumerate_maximal_tf, else -1
        self.stack: list[int] = []
        self.calls = [0] * len(TARGETS)
        self.enumerated = 0  # graphs returned by enumerate_maximal_tf

    def _open(self, fid: int, tag: int) -> int:
        index = len(self.start)
        self.name.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.tag.append(tag)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fid: int, fn):
        tracer = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def resume(inner):
                while True:
                    index = tracer._open(fid, -1)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            def generator(*args, **kwargs):
                calls[fid] += 1
                return resume(fn(*args, **kwargs))

            return generator

        if fid == ENUMERATE:
            def enumerate_wrapper(n, *args, **kwargs):
                calls[fid] += 1
                index = tracer._open(fid, n)
                try:
                    result = fn(n, *args, **kwargs)
                finally:
                    tracer._close(index)
                tracer.enumerated += len(result)
                return result

            return enumerate_wrapper

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            index = tracer._open(fid, -1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in the loaded trifree modules."""
        modules = [m for name, m in sys.modules.items() if name.startswith("trifree.")]
        for fid, target in enumerate(TARGETS):
            module_name, attr = target.split(".")
            original = getattr(sys.modules[f"trifree.{module_name}"], attr)
            if isinstance(original, type):
                original.__init__ = self._wrap(fid, original.__init__)
                continue
            wrapped = self._wrap(fid, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def summary(self) -> dict:
        """Calls and self time per target, enumeration per order, and yield."""
        count = len(self.start)
        child = [0.0] * count
        under_enumeration = bytearray(count)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                under_enumeration[i] = name[p] == ENUMERATE or under_enumeration[p]
        self_s = [0.0] * len(TARGETS)
        by_order: dict[int, float] = {}
        canonical_in_enumeration = 0
        for i in range(count):
            own = end[i] - start[i] - child[i]
            fid = name[i]
            self_s[fid] += own
            if fid == ENUMERATE:
                by_order[self.tag[i]] = by_order.get(self.tag[i], 0.0) + own
            elif fid == CANONICAL and under_enumeration[i]:
                canonical_in_enumeration += 1
        return {
            "spans": count,
            "calls": dict(zip(TARGETS, self.calls)),
            "self_s": dict(zip(TARGETS, self_s)),
            "enumerate_self_s_by_order": {str(n): s for n, s in sorted(by_order.items())},
            "enumerated": self.enumerated,
            "canonical_in_enumeration": canonical_in_enumeration,
        }

    def write(self, stem: str) -> None:
        """Spans as five little-endian-native arrays plus a JSON header."""
        with open(stem + ".bin", "wb") as handle:
            for column in (self.name, self.parent, self.tag, self.start, self.end):
                column.tofile(handle)
        header = {
            "names": list(TARGETS),
            "count": len(self.start),
            "columns": [["name", "b"], ["parent", "i"], ["tag", "i"],
                        ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter, seconds",
        }
        with open(stem + ".json", "w", encoding="ascii") as handle:
            json.dump(header, handle)
