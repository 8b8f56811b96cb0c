"""Structured spans, layered on the raw trace stream.

A *span* is a named interval of simulated time with attributes and optional
nesting — the structured sibling of the free-form
:class:`~repro.sim.trace.TraceRecorder` records the components already emit.
The tracker does two things with every span:

* keeps the finished :class:`Span` objects for programmatic queries and the
  Chrome ``about:tracing`` exporter
  (:func:`repro.analysis.export.spans_to_chrome`);
* mirrors ``<name>_begin`` / ``<name>_end`` records into the attached
  :class:`~repro.sim.trace.TraceRecorder` while that recorder is enabled,
  so spans and legacy records stay interleaved in one stream.  With the
  trace off (a world's default) spans still complete; they are only not
  mirrored.

Two usage shapes:

* explicit, for generator-based simulation processes (a ``with`` block
  cannot straddle a ``yield`` meaningfully)::

      sp = tracker.begin("gateway", "forward", gw=2)
      ...
      sp.finish(ok=True)

* context manager, for straight-line code::

      with tracker.span("analysis", "collate"):
          ...

Nesting: ``begin`` takes an explicit ``parent``; the context-manager form
maintains a current-span stack automatically.  Simulation processes
interleave arbitrarily, so implicit nesting across processes would lie —
explicit is the honest default there.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sim.trace import TraceRecorder

__all__ = ["Span", "SpanTracker"]


@dataclass
class Span:
    """One named interval of simulated time."""

    id: int
    category: str
    name: str
    start: float
    parent: Optional[int] = None
    stop: Optional[float] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    _tracker: Optional["SpanTracker"] = field(default=None, repr=False)

    @property
    def open(self) -> bool:
        return self.stop is None

    @property
    def duration(self) -> float:
        if self.stop is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.stop - self.start

    def finish(self, **attrs: Any) -> "Span":
        """Close the span at the current simulated time."""
        if self._tracker is not None:
            self._tracker.end(self, **attrs)
        return self

    @property
    def depth(self) -> int:
        """Nesting depth (0 = root), walking the parent chain."""
        if self._tracker is None or self.parent is None:
            return 0
        parent = self._tracker.get(self.parent)
        return 1 + parent.depth if parent is not None else 0


class _NullSpan(Span):
    """The span a disabled tracker hands out: finishing it does nothing."""

    def __init__(self) -> None:
        super().__init__(id=-1, category="", name="", start=0.0)

    def finish(self, **attrs: Any) -> "Span":
        return self


_NULL_SPAN = _NullSpan()


class SpanTracker:
    """Creates, closes, and stores spans against a simulated-time clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 trace: Optional[TraceRecorder] = None,
                 enabled: bool = True) -> None:
        self.clock = clock or (lambda: 0.0)
        self.trace = trace
        self.enabled = enabled
        self.completed: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.completed.clear()
        self._by_id.clear()
        self._stack.clear()

    # -- creation / closing ------------------------------------------------------
    def begin(self, category: str, name: str,
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span now; returns a live handle (``finish()`` closes it)."""
        if not self.enabled:
            return _NULL_SPAN
        span = Span(id=next(self._ids), category=category, name=name,
                    start=self.clock(),
                    parent=parent.id if parent is not None else None,
                    attrs=dict(attrs), _tracker=self)
        self._by_id[span.id] = span
        if self.trace is not None:
            self.trace.emit(span.start, category, f"{name}_begin",
                            span=span.id, **attrs)
        return span

    def end(self, span: Span, **attrs: Any) -> None:
        if span is _NULL_SPAN or not self.enabled:
            return
        if span.stop is not None:
            raise ValueError(f"span {span.name!r} (#{span.id}) already ended")
        span.stop = self.clock()
        span.attrs.update(attrs)
        self.completed.append(span)
        if self.trace is not None:
            self.trace.emit(span.stop, span.category, f"{span.name}_end",
                            span=span.id, **attrs)

    @contextmanager
    def span(self, category: str, name: str, **attrs: Any):
        """Context-manager form with automatic nesting under the enclosing
        ``span()`` block."""
        parent = self._stack[-1] if self._stack else None
        sp = self.begin(category, name, parent=parent, **attrs)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            self.end(sp)

    # -- queries ---------------------------------------------------------------
    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def query(self, category: Optional[str] = None,
              name: Optional[str] = None) -> list[Span]:
        """Completed spans matching the given category/name."""
        return [sp for sp in self.completed
                if (category is None or sp.category == category)
                and (name is None or sp.name == name)]

    def children(self, span: Span) -> list[Span]:
        return [sp for sp in self.completed if sp.parent == span.id]

    def __len__(self) -> int:
        return len(self.completed)
