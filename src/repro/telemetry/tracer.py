"""Tracers: the span-recording half of the telemetry subsystem.

Two implementations of one tiny interface (``span(name, **attrs)`` context
manager):

* :class:`Tracer` — records a tree of :class:`~repro.telemetry.span.Span`
  objects with monotonic-clock timing, nesting via an explicit stack, and
  exception capture (the span is marked ``status="error"`` and closed, the
  exception propagates).
* :class:`NullTracer` — the zero-overhead disabled path: ``span()`` returns
  one shared, stateless context manager and allocates nothing.  Hot loops
  instrumented against the ambient tracer cost a single attribute lookup
  and a no-op ``with`` when telemetry is off.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry.span import Span


class Tracer:
    """Records nested spans on a monotonic clock.

    Not thread-safe: one tracer belongs to one flow of control (the
    legalization pipeline is single-threaded; give each worker its own
    tracer/session if that ever changes).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self.roots: List[Span] = []

    # ------------------------------------------------------------------
    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the current span (a root if none is open).

        Exception-safe: the span always gets an ``end`` time and is popped
        off the stack; if the body raised, ``status`` becomes ``"error"``
        and ``error`` holds ``TypeName: message``.  The exception is
        re-raised unchanged.
        """
        parent = self.current_span
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start=self._clock(),
            attributes=dict(attributes),
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = self._clock()
            self._stack.pop()

    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        """All recorded spans with the given name."""
        return [s for s in self.walk() if s.name == name]

    def stage_seconds(self) -> Dict[str, float]:
        """Total duration per span name over the whole tree.

        The flat accumulate-by-name view; nested spans are counted under
        their own names (so a parent's total includes time also
        attributed to its children).
        """
        totals: Dict[str, float] = {}
        for span in self.walk():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def clear(self) -> None:
        """Drop all recorded spans (open spans keep recording)."""
        self.roots = []


class _NullSpan:
    """Stateless stand-in yielded by :class:`NullTracer` spans."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    duration = 0.0
    status = "ok"
    error = None
    attributes: Dict[str, Any] = {}
    children: List[Span] = []

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def child_seconds(self) -> Dict[str, float]:
        return {}

    def walk(self):
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, allocation-free context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every ``span()`` is the same shared no-op context."""

    enabled = False
    roots: List[Span] = []

    @property
    def current_span(self) -> Optional[Span]:
        return None

    def span(self, name: str, **attributes: Any) -> _NullSpanContext:
        return _NULL_CONTEXT

    def walk(self):
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []

    def stage_seconds(self) -> Dict[str, float]:
        return {}

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
