"""In-memory span log for the traced benchmark run.

A span is one timed call into a layer of the package, made from the
benchmark's own code. Each records the scope it ran in (a set-up trial or
a measured pass), the span that caused it (``None`` for a call made
directly by an operation), its name, and its start and end times.
Counters, such as bytes passed through ``io``, are kept beside the spans
under the same scopes.

Nothing is written while the benchmark runs; totals are read out at the
end.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class Span:
    scope: Hashable
    parent: str | None
    name: str
    start: float
    end: float


class Spans:
    """Span and counter log, grouped by scope."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[Hashable, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.scope: Hashable = None

    def enter(self, scope: Hashable) -> None:
        """Attribute the following spans to `scope`."""
        self.scope = scope

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a top-level span called `name`."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(self.scope, None, name, start, perf_counter()))

    def add_child(self, parent: str, name: str, seconds: float) -> None:
        """Record a span measured elsewhere (in a child process) under `parent`."""
        now = perf_counter()
        self.spans.append(Span(self.scope, parent, name, now - seconds, now))

    def count(self, name: str, value: float) -> None:
        self.counts[self.scope][name] += value

    def totals(self, scope: Hashable) -> dict[str, float]:
        """Summed span seconds by name, plus counters, for one scope."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.scope == scope:
                out[s.name] += s.end - s.start
        out.update(self.counts.get(scope, {}))
        return dict(out)

    def covered(self, scope: Hashable) -> float:
        """Seconds of `scope` spent inside top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.scope == scope and s.parent is None)


def call(spans: Spans | None, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call `fn` directly when untraced, inside a span when traced."""
    if spans is None:
        return fn(*args, **kwargs)
    return spans.call(name, fn, *args, **kwargs)
