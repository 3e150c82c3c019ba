"""Per-iteration solver event stream.

The LCP solvers (MMSIM, PSOR, Lemke) accept an optional ``telemetry`` sink
in their options and, when it is set, emit one structured event per sweep /
pivot — residual, z-step norm, damping ω, pivot column — plus lifecycle
events (``stall_rescue``, ``done``).  The MMSIM emits its ``iteration``
event at each convergence check: every sweep at ``MMSIMOptions.block = 1``
(the reference backend), every block boundary at larger blocks (fused).

Zero-overhead contract: solvers hoist ``emit = opts.telemetry.emit if
opts.telemetry is not None else None`` before the loop and guard each emit
with ``if emit is not None``; a disabled run pays one pointer comparison
per iteration and allocates nothing.

:class:`EventSink` is *bounded* (a ``deque(maxlen=...)`` keeps the most
recent events and counts the dropped ones) and optionally *streaming*
(every event is also written immediately as a JSON line to a file-like
``stream``, so arbitrarily long runs can be traced with O(1) memory).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, TextIO


class EventSink:
    """Bounded, optionally streaming collector of solver events.

    Parameters
    ----------
    limit:
        Maximum events kept in memory (oldest dropped first).  ``None``
        means unbounded — only sensible for short runs or tests.
    stream:
        Optional text file-like; each event is appended as one JSON line
        the moment it is emitted (before any dropping).
    tracer:
        Optional tracer; when given, events are stamped with the
        ``span_id`` of the innermost open span so exporters can nest
        convergence events under their solve span.
    """

    def __init__(
        self,
        limit: Optional[int] = 10000,
        stream: Optional[TextIO] = None,
        tracer=None,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1 (or None for unbounded)")
        self.limit = limit
        self._events: deque = deque(maxlen=limit)
        self._stream = stream
        self._tracer = tracer
        self._seq = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, solver: str, kind: str, **fields: Any) -> None:
        """Record one event. ``solver`` names the emitter, ``kind`` the
        event type (``iteration``, ``pivot``, ``stall_rescue``, ``done``)."""
        self._seq += 1
        record: Dict[str, Any] = {
            "kind": "event",
            "seq": self._seq,
            "solver": solver,
            "type": kind,
        }
        if self._tracer is not None:
            span = self._tracer.current_span
            if span is not None:
                record["span_id"] = span.span_id
        record.update(fields)
        if self._stream is not None:
            self._stream.write(json.dumps(record) + "\n")
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(record)

    # ------------------------------------------------------------------
    def events(
        self, solver: Optional[str] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Retained events, optionally filtered by solver and/or type."""
        out = list(self._events)
        if solver is not None:
            out = [e for e in out if e.get("solver") == solver]
        if kind is not None:
            out = [e for e in out if e.get("type") == kind]
        return out

    @property
    def total_emitted(self) -> int:
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


def solver_iteration_counts(events: List[Dict[str, Any]]) -> Dict[str, int]:
    """Per-solver iteration totals from a list of event records.

    Prefers the ``done`` event's ``iterations`` field (exact even when
    per-iteration events were bounded away); falls back to the highest
    per-iteration ``iteration``/``pivot`` number seen.
    """
    totals: Dict[str, int] = {}
    seen_done: Dict[str, int] = {}
    for event in events:
        solver = event.get("solver")
        if solver is None:
            continue
        if event.get("type") == "done" and "iterations" in event:
            seen_done[solver] = seen_done.get(solver, 0) + int(event["iterations"])
        else:
            n = event.get("iteration", event.get("pivot"))
            if n is not None:
                totals[solver] = max(totals.get(solver, 0), int(n))
    # done-event totals win where available (they accumulate across solves).
    totals.update(seen_done)
    return totals
