"""Spans and counters recorded from outside the program.

``install`` wraps every public function of the engine's modules at every
module attribute the program looks it up through (``affsch.cli.certificate``
and ``affsch.schubert.certificate`` get the same wrapper), so no line of the
package changes.  Each wrapped call records a span (name, start, end, parent
span, request id) in an in-memory array and adds to per-name totals; two hot
methods of ``FiniteRootSystem`` only count calls.  ``dump`` writes the spans
out when the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

MODULES = ("rootsys", "twist", "schubert", "loopalg", "verify", "cli")
FIELDS = ("name", "start_ns", "end_ns", "parent", "request")
# Spans beyond this many are aggregated but not kept, to bound memory.
MAX_SPANS = 2_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.spans = array("q")
        self.dropped = 0
        self.stack: list[list[int]] = []
        self.counters: dict[str, int] = {}
        self.request = -1
        self.active = True
        self.originals: dict[str, object] = {}

    def _intern(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def span(self, name: str, fn):
        """fn wrapped so that each call records a span named name."""
        nid = self._intern(name)
        self.originals[name] = fn
        clock = time.perf_counter_ns
        stack, spans = self.stack, self.spans
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        limit = 5 * MAX_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            if len(spans) < limit:
                index = len(spans)
                spans.extend((nid, 0, 0, parent, self.request))
            else:
                index = -1
                self.dropped += 1
            frame = [index, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                duration = end - start
                if index >= 0:
                    spans[index + 1] = start
                    spans[index + 2] = end
                calls[nid] += 1
                total_ns[nid] += duration
                self_ns[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    def counter(self, name: str, fn):
        """fn wrapped so that each call adds one to the counter name."""
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layers(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_ns[i] / 1e9,
                "self_s": self.self_ns[i] / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> int:
        """Write the kept spans as JSON; returns how many were written."""
        rows = [list(self.spans[i : i + 5]) for i in range(0, len(self.spans), 5)]
        doc = {"fields": list(FIELDS), "names": self.names, "dropped": self.dropped, "spans": rows}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(rows)


def install(package) -> Tracer:
    """Wrap the public functions of package's engine modules; returns the tracer."""
    modules = [getattr(package, name) for name in MODULES]
    tracer = Tracer()
    wrappers: dict[int, object] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                wrappers[id(obj)] = tracer.span(f"{short}.{name}", obj)
    for module in [package, *modules]:
        for name, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
    system_cls = package.rootsys.FiniteRootSystem
    system_cls.__init__ = tracer.counter("rootsys.systems_built", system_cls.__init__)
    system_cls.lattice_coefficients = tracer.counter(
        "rootsys.lattice_solves", system_cls.lattice_coefficients
    )
    return tracer


def cache_stats(package) -> dict[str, dict[str, int]]:
    """cache_info() of every lru_cache in the engine modules, by module.name."""
    out = {}
    for name in MODULES:
        module = getattr(package, name)
        for attr, obj in vars(module).items():
            if not hasattr(obj, "cache_info"):  # a tracing wrapper around the cache
                obj = getattr(obj, "__wrapped__", None)
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == module.__name__:
                hits, misses, _, size = info()
                out[f"{name}.{attr}"] = {"hits": hits, "misses": misses, "currsize": size}
    return out
