"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into the program's
public functions (the program itself is not instrumented).  Each span
holds its name, start, end, parent span id and request id; spans stay in
memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: str, parent: Optional[int] = None):
        """Time the body; yields the new span's id for child spans."""
        with self._lock:
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "name": name,
                "request": request,
                "parent": parent,
                "start": None,
                "end": None,
            }
            self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()

    def seconds(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span["end"] - span["start"]

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
