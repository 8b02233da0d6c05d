"""Spans around the calls one `jkn` module makes into another.

`Tracer.install()` rebinds each public callable in `WRAP_POINTS` in every
`jkn` module namespace that holds it, so that the calling module finds the
wrapper: `jkn.enumeration.minimal_support`, `jkn.cli.enumerate_orbits`, and
so on.  Nothing in the library changes.  A wrap point the library no longer
has is reported as absent and the run goes on.

A span is (name, start_ns, end_ns, parent, request): `parent` is the index
of the enclosing span or -1, `request` the id the worker set before the
request.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from pathlib import Path

# (module, public callable), in the order the per-layer metrics list them.
WRAP_POINTS = (
    ("enumeration", "enumerate_orbits"),
    ("enumeration", "enumerate_generic"),
    ("enumeration", "orbit_size"),
    ("classify", "is_real_sorted_candidate"),
    ("classify", "reduce_trace"),
    ("classify", "classify_entries"),
    ("lattice", "LatticeVector"),
    ("lattice", "cartan_matrix"),
    ("families", "minimal_support"),
    ("families", "fundamental_weights"),
    ("families", "sum_of_positive_roots"),
    ("cli", "main"),
)

CACHE_POINT = "enumeration.enumerate_orbits"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.request = -1
        self.absent: list[str] = []
        self.cache_calls = 0
        self.cache_hits = 0
        self._returned: dict = {}
        self._local = threading.local()

    def install(self) -> None:
        modules = {}
        for module, _ in WRAP_POINTS:
            try:
                modules[module] = importlib.import_module(f"jkn.{module}")
            except ImportError:
                modules[module] = None
        namespaces = [importlib.import_module("jkn")] + [m for m in modules.values() if m]
        for module, attr in WRAP_POINTS:
            name = f"{module}.{attr}"
            original = getattr(modules[module], attr, None) if modules[module] else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    setattr(ns, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns
        on_return = self._cache_probe(fn) if name == CACHE_POINT else None

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.request)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_probe(self, fn):
        """A call hits when it returns the very object an earlier call with
        the same (params, degree) returned."""
        signature = inspect.signature(fn)

        def probe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            key = tuple(bound.arguments.values())[:2]
            self.cache_calls += 1
            if self._returned.get(key) is result:
                self.cache_hits += 1
            else:
                self._returned[key] = result

        return probe

    def dump(self, path: Path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": self.spans,
                    "absent": self.absent,
                    "cache_calls": self.cache_calls,
                    "cache_hits": self.cache_hits,
                },
                f,
            )


def summarize(spans) -> dict[str, list]:
    """name -> [calls, self_ns]; self time is the span minus its children."""
    children = [0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    out: dict[str, list] = {}
    for i, span in enumerate(spans):
        if span is None:  # still open when the spans were written
            continue
        name, start, end = span[:3]
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += end - start - children[i]
    return out
