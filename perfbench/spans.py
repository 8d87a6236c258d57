"""In-memory span recorder and call-site instrumentation for traced runs.

A span is (name, start, end, parent). Spans nest because the program is
single-threaded under the benchmark, so a span's self time is its duration
minus the durations of its direct children, and the self times of a tree add
up to the root's duration exactly.

Functions are wrapped where they are looked up, not where they are defined:
the diarkit modules use ``from ... import``, so each importing module holds
its own reference and each of those references is replaced separately.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """Collects spans and named counters; writes nothing until asked."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index] = self.spans[index]._replace(end=self.clock())

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def to_records(self) -> list[dict]:
        return [s._asdict() for s in self.spans]


class Probe(NamedTuple):
    """One call site to time: ``module.attribute`` recorded as span ``name``.

    ``observe(tracer, args, kwargs, result)``, when given, records counters
    after the span has closed, so its cost lands in the caller's self time.
    """

    module: str
    attribute: str
    name: str
    observe: Optional[Callable] = None


def _wrap(fn: Callable, probe: Probe, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with tracer.span(probe.name):
            result = fn(*args, **kwargs)
        if probe.observe is not None:
            probe.observe(tracer, args, kwargs, result)
        return result

    return timed


@contextmanager
def instrumented(tracer: Tracer, probes: tuple[Probe, ...]):
    """Replace every probed attribute with a timing wrapper for the duration
    of the block, and put each original back afterwards, also on error."""
    saved = []
    try:
        for probe in probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attribute)
            saved.append((module, probe.attribute, original))
            setattr(module, probe.attribute, _wrap(original, probe, tracer))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)
