"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions: a layer boundary is a method of one
``QueryPipeline`` instance (or its codec, generator or CNF engine) that
the benchmark shadows with a timing wrapper, or a ``with tracer.span()``
block around a Spark action.  Each span has a name, a start, an end, a
parent span and a trace id; all spans of one (workload, camera, method)
share the trace id.  Spans stay in columnar arrays until the run ends,
then :meth:`Tracer.write` saves them in one ``.npz`` file.

A layer's self time is its span's duration minus the time its child
spans cover (children never overlap: the program is single-threaded).
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter

# (owner attribute on QueryPipeline or None for the pipeline itself,
#  method name, span name).  ``feed`` is the parent of the others; its
# self time is the class filter, the label aggregation and match-row
# emission.
PIPELINE_LAYERS = (
    (None, "feed", "feed"),
    ("codec", "encode_iter", "encode"),
    ("codec", "decode", "decode"),
    ("gen", "advance", "advance"),
    ("gen", "results", "results"),
    ("engine", "evaluate", "cnf"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.trace_ids: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._trace_ix: dict[str, int] = {}
        self.name = array("i")
        self.trace = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._cur = -1
        self.results_states = 0

    def _intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def set_trace(self, trace_id: str) -> None:
        """Spans begun from now on belong to ``trace_id``."""
        ix = self._trace_ix.get(trace_id)
        if ix is None:
            ix = self._trace_ix[trace_id] = len(self.trace_ids)
            self.trace_ids.append(trace_id)
        self._cur = ix

    def begin(self, name_ix: int) -> int:
        i = len(self.start)
        self.name.append(name_ix)
        self.trace.append(self._cur)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(clock())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(self._intern(name))
        try:
            yield
        finally:
            self.finish(i)

    # -- pipeline instrumentation ---------------------------------------
    def _wrap(self, obj, attr: str, name: str) -> None:
        fn = getattr(obj, attr)
        nix = self._intern(name)
        begin, finish = self.begin, self.finish

        if name == "results":
            def traced(*args):
                i = begin(nix)
                try:
                    out = fn(*args)
                finally:
                    finish(i)
                self.results_states += len(out)
                return out
        else:
            def traced(*args):
                i = begin(nix)
                try:
                    return fn(*args)
                finally:
                    finish(i)

        # An instance attribute shadows the class method for this
        # object only; :func:`strip` removes it again.
        setattr(obj, attr, traced)

    def instrument(self, pipe) -> None:
        """Time every layer call of one ``QueryPipeline`` instance."""
        for owner, attr, name in PIPELINE_LAYERS:
            self._wrap(pipe if owner is None else getattr(pipe, owner), attr, name)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds of self time per (trace id, span name)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[tuple[str, str], float] = defaultdict(float)
        names, traces, name, trace = self.names, self.trace_ids, self.name, self.trace
        for i in range(n):
            key = (traces[trace[i]] if trace[i] >= 0 else "", names[name[i]])
            out[key] += end[i] - start[i] - child[i]
        return out

    def total(self, span_name: str) -> float:
        """Summed duration of the spans called ``span_name``."""
        nix = self._name_ix.get(span_name)
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.name[i] == nix
        )

    def count(self, span_name: str) -> int:
        nix = self._name_ix.get(span_name)
        return 0 if nix is None else self.name.count(nix)

    def write(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            trace_ids=np.array(self.trace_ids),
            name=np.frombuffer(self.name, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def strip(pipe) -> None:
    """Remove the timing wrappers, e.g. before pickling the pipeline."""
    for owner, attr, _ in PIPELINE_LAYERS:
        (pipe if owner is None else getattr(pipe, owner)).__dict__.pop(attr, None)
