"""Spans around the public functions of each eqmin layer, recorded from
outside the package.

eqmin carries no tracing code of its own.  A Tracer replaces module
attributes with timing wrappers for the duration of a `with
tracer.patched():` block and restores the originals afterwards, so traced
and untraced iterations can share one process.  Spans stay in memory
until the benchmark summarizes them and writes them out at the end.
"""

import contextlib
import functools
import importlib
import json
import time
import tracemalloc

# (module, attribute, span name).  The attribute patched is the one the
# caller looks up: invariants imports polish_solution by name, higgs
# imports dbar_operator by name, and cli.sweep calls the module global
# run, so those namespaces are patched under the defining layer's name.
# mobius is called only from inside hypmesh and gets no span of its own.
WRAPPED = (
    ("hypmesh", "build_surface", "hypmesh.build_surface"),
    ("bundles", "dbar_operator", "bundles.dbar_operator"),
    ("higgs", "dbar_operator", "bundles.dbar_operator"),
    ("bundles", "holomorphic_basis", "bundles.holomorphic_basis"),
    ("bundles", "class_is_trivial", "bundles.class_is_trivial"),
    ("germsolve", "solve_gauss_ricci4", "germsolve.solve_gauss_ricci4"),
    ("germsolve", "solve_gauss3", "germsolve.solve_gauss3"),
    ("germsolve", "polish_solution", "germsolve.polish_solution"),
    ("invariants", "polish_solution", "germsolve.polish_solution"),
    ("invariants", "compute_invariants", "invariants.compute_invariants"),
    ("higgs", "build_from_germ", "higgs.build_from_germ"),
    ("higgs", "gauge_scale", "higgs.gauge_scale"),
    ("higgs", "hodge_flag", "higgs.hodge_flag"),
    ("moduli", "classify", "moduli.classify"),
    ("cli", "run", "cli.run"),
    ("cli", "sweep", "cli.sweep"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED))

# Spans whose peak of traced (numpy and Python) allocations is recorded.
# tracemalloc runs only inside these spans, so it slows nothing else.
MEMORY_SPANS = frozenset({"bundles.holomorphic_basis"})

# Solver spans whose result carries a Newton trace; iterations are counted
# at the outermost one (solve_gauss_ricci4 may delegate to solve_gauss3).
NEWTON_SPANS = frozenset({"germsolve.solve_gauss3", "germsolve.solve_gauss_ricci4"})


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "peak_bytes",
                 "newton_iters")

    def __init__(self, name, parent, iteration):
        self.name = name
        self.parent = parent
        self.iteration = iteration
        self.start = self.end = None
        self.peak_bytes = None
        self.newton_iters = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Collects spans; `iteration` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.iteration = None
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.iteration)
            self.spans.append(span)
            self._stack.append(span)
            memory = name in MEMORY_SPANS
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if name in NEWTON_SPANS and (parent is None or parent.name not in NEWTON_SPANS):
                span.newton_iters = len(result.newton_trace) - 1
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every WRAPPED attribute; the originals return on exit."""
        originals = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(f"eqmin.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def dump(self, path):
        """Write every span as JSON; `parent` is the index of the parent span."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)), "iteration": s.iteration,
                 "peak_bytes": s.peak_bytes, "newton_iters": s.newton_iters}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    def summary(self, iteration):
        """Per span name: inclusive seconds, self seconds (inclusive minus
        the time its child spans cover) and calls, for one iteration; plus
        the holomorphic_basis allocation peak and the Newton iterations."""
        own = [s for s in self.spans if s.iteration == iteration]
        child_seconds = {}
        for s in own:
            if s.parent is not None:
                child_seconds[id(s.parent)] = child_seconds.get(id(s.parent), 0.0) + s.seconds
        out = {}
        for name in SPAN_NAMES:
            mine = [s for s in own if s.name == name]
            out[f"{name}.s"] = sum(s.seconds for s in mine)
            out[f"{name}.self_s"] = sum(s.seconds - child_seconds.get(id(s), 0.0) for s in mine)
            out[f"{name}.calls"] = len(mine)
        peaks = [s.peak_bytes for s in own if s.peak_bytes is not None]
        out["bundles.holomorphic_basis.peak_mb"] = max(peaks, default=0) / 2**20
        out["germsolve.newton_iters"] = sum(s.newton_iters or 0 for s in own)
        return out

