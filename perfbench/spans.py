"""In-memory call spans around optoepr's public functions.

A `Tracer` replaces module attributes with timing wrappers, so every caller
that looks a function up through its module (``cli`` calling
``spectra.output_spectral_matrix``, ``spectra`` calling its own
``output_response``, ``sde`` calling ``estimate_inference_variance``) is
seen.  Spans are kept in memory; the worker aggregates them per batch and
writes the last batch out when it ends.

What this cannot see from outside: time inside private helpers (for
example the RNG draws versus the propagation loop of the stochastic
oracle) is part of the calling span's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    """One call: name, parent span id (None at the top) and start/end times."""

    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Calls are synchronous, so the children of a span are disjoint
    sub-intervals of it and their durations add up to the covered part.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer name (the span name's first component) -> summed self time."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.layer] += own[s.id]
    return dict(totals)


# Note functions: (args, kwargs, result) -> counts recorded on the span.
Note = Callable[[tuple, dict, object], dict[str, float]]


class Tracer:
    """Wraps functions at the module attributes their callers look up."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(id=len(self.spans), name=name, parent=parent,
                        start=self.clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if note is not None:
                span.notes = note(args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        """Patch each (module, attribute, span name, note) target."""
        for module, attr, name, note in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, note))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans
