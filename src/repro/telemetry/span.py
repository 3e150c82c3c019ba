"""Span: one timed, attributed, nestable unit of work.

A span covers a contiguous interval on the monotonic clock (``start`` to
``end``), carries free-form attributes, records whether the covered code
raised, and holds its children — so a legalization run becomes a tree
``legalize → {row_assign, split, build_qp, mmsim, …}`` that exporters can
serialize (JSONL, Chrome trace) and summaries can aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """A completed-or-active node in the trace tree.

    ``start``/``end`` are monotonic-clock seconds (``time.perf_counter``),
    meaningful only relative to other spans of the same tracer.
    """

    name: str
    span_id: int
    parent_id: Optional[int] = None
    start: float = 0.0
    end: Optional[float] = None
    status: str = "ok"
    error: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute (e.g. iteration counts)."""
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over this span and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def child_seconds(self) -> Dict[str, float]:
        """Total duration of *direct* children, aggregated by name.

        The per-stage view of a flow's root span, e.g.
        ``{"row_assign": 0.01, "mmsim": 0.4, ...}`` — what the legalizers
        report as ``stage_seconds``.
        """
        totals: Dict[str, float] = {}
        for child in self.children:
            totals[child.name] = totals.get(child.name, 0.0) + child.duration
        return totals

    # ------------------------------------------------------------------
    def to_record(self) -> Dict[str, Any]:
        """Flat JSON-serializable form (children referenced by parent_id)."""
        record: Dict[str, Any] = {
            "kind": "span",
            "id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.attributes:
            record["attrs"] = dict(self.attributes)
        return record

    def __str__(self) -> str:
        return f"Span({self.name!r}, {self.duration:.4f}s, id={self.span_id})"
