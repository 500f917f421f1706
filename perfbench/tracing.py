"""Spans recorded around the public calls of crystalposets, from outside it.

A traced run wraps selected library functions in every module of the
package that binds them, so calls made by the benchmark and calls made
inside the library (for example by ``scenarios.run_all``) both open a
span.  Spans live in memory; ``dump`` writes them once the run has ended.
Untraced runs use :data:`OFF`, which records nothing and patches nothing.
"""

from __future__ import annotations

import functools
import json
import re
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

# (module, function, span name); the span name's prefix is the layer.  weyl
# gets no span of its own: its cost shows inside keymap.compute_keys
# (left_weak_join) and keymap.demazure (strong_bruhat_leq).  cli gets none
# either: interval_queries runs the library path of `mobius` and `chains`.
WRAPPED = (
    ("crystal", "generate", "crystal.generate"),
    ("crystal", "check_stembridge_axioms", "crystal.axioms"),
    ("poset", "free_interval", "poset.free_interval"),
    ("poset", "interval", "poset.interval"),
    ("poset", "interval_mobius", "poset.interval_mobius"),
    ("poset", "stembridge_components", "poset.components"),
    ("poset", "saturated_chains", "poset.saturated_chains"),
    ("poset", "lower_mobius_all", "poset.lower_mobius"),
    ("poset", "euler_mobius", "poset.euler_mobius"),
    ("poset", "non_stembridge_witness", "poset.witness"),
    ("poset", "minimal_upper_bounds", "poset.upper_bounds"),
    ("keymap", "compute_keys", "keymap.compute_keys"),
    ("keymap", "check_key_axioms", "keymap.key_axioms"),
    ("keymap", "fiber_extremes", "keymap.fiber_extremes"),
    ("keymap", "fiber", "keymap.fiber"),
    ("keymap", "demazure", "keymap.demazure"),
)
# spans the benchmark opens itself around calls it makes
OWN_SPANS = ("bench.pass", "crystal.reverse", "crystal.json_roundtrip")
SCENARIO = re.compile(r"(s\d+)_[a-z_]+$")
LAYERS = ("bench", "crystal", "poset", "keymap", "scenarios")
PACKAGE_MODULES = ("crystal", "poset", "keymap", "scenarios")  # modules binding them
COUNTERS = (
    "crystal.generate_vertices",
    "crystal.generate_edges",
    "poset.interval_vertices",
    "poset.chains",
    "poset.components",
    "poset.mobius_nonzero",
)


def _count_result(name: str, result, counters: dict[str, int]) -> None:
    """Work counters read off a wrapped call's return value."""
    if name == "crystal.generate":
        counters["crystal.generate_vertices"] += len(result)
        counters["crystal.generate_edges"] += len(result.edges)
    elif name in ("poset.free_interval", "poset.interval") and result is not None:
        counters["poset.interval_vertices"] += len(result)
    elif name == "poset.components":
        chains, components = result
        counters["poset.chains"] += len(chains)
        counters["poset.components"] += len(components)
    elif name == "poset.lower_mobius":
        counters["poset.mobius_nonzero"] += sum(1 for m in result if m)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: object


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.query: object = None  # id of the workload item being run
        self._open: list[int] = []
        self.recording = True

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    @contextmanager
    def paused(self):
        """Calls made inside record no span and count nothing."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.query))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def install(self, package) -> None:
        """Wrap the listed functions and every scenario in all modules of
        ``package`` that bind them."""
        modules = [package] + [getattr(package, m) for m in PACKAGE_MODULES]
        targets = [(getattr(package, mod), fn, span) for mod, fn, span in WRAPPED]
        for attr in dir(package.scenarios):
            match = SCENARIO.match(attr)
            if match:
                targets.append((package.scenarios, attr, f"scenarios.{match.group(1)}"))
        for home, fn, span in targets:
            original = getattr(home, fn)
            wrapper = self._wrap(original, span)
            for module in modules:
                if getattr(module, fn, None) is original:
                    setattr(module, fn, wrapper)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            _count_result(name, result, self.counters)
            return result

        return traced

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass of the workload: total time per span
        name, self time per layer, and the work counters."""
        totals = dict.fromkeys([name for _, _, name in WRAPPED] + list(OWN_SPANS), 0.0)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_time = {layer: 0.0 for layer in LAYERS}
        for k, span in enumerate(self.spans):
            duration = span.end - span.start
            if span.name in totals:  # scenario spans only feed self time
                totals[span.name] += duration
            self_time[span.name.split(".")[0]] += duration - child_time[k]
        out = {f"{name}_s": value for name, value in totals.items()}
        out.update({f"{layer}.self_s": value for layer, value in self_time.items()})
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return {name: value / passes for name, value in out.items()}

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "query": s.query}
            for s in self.spans
        ]))


class _Off:
    """Stand-in for an untraced run: records nothing, wraps nothing."""

    query = None

    @staticmethod
    def span(name: str):
        return nullcontext()

    @staticmethod
    def paused():
        return nullcontext()


OFF = _Off()
