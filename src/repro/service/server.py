"""The legalization server: ``repro serve``.

A long-lived asyncio process that accepts legalization jobs over a
minimal JSON-over-HTTP/1.1 protocol and answers them from a thread-pool
execution tier:

* **Front end** — ``asyncio.start_server`` with a hand-rolled HTTP/1.1
  reader (stdlib only; one request per connection, ``Connection:
  close``).  Routes: ``POST /legalize``, ``GET /healthz``, ``GET
  /stats``, ``GET /metrics``, ``POST /shutdown``.
* **Bounded queue + backpressure** — accepted jobs enter a bounded
  :class:`asyncio.Queue` and wait there, and only there, until a worker
  is free; when it is full the server answers ``429`` with a
  ``Retry-After`` hint instead of buffering without bound.
* **Cross-request batching on a free worker** — as soon as one of the
  ``workers`` :class:`~concurrent.futures.ThreadPoolExecutor` threads is
  idle, the batcher hands it the next job together with every job
  already queued behind it (up to ``max_batch``), and the worker runs
  :func:`repro.core.multi.legalize_many`: a lone request runs
  ``legalize()``'s own phases (the same answer bit for bit), and two or
  more compatible designs are stacked block-diagonally and swept as
  **one** batched MMSIM (see :mod:`repro.core.multi`).  An idle server
  starts a request at once; jobs stack only when they queue behind
  busy workers.
* **Keyed warm-state store** — each design's KKT solution is cached
  under the request key (:mod:`repro.service.store`); the next request
  for the same key warm-starts and converges in a handful of sweeps.
  Staleness is decided by the existing fingerprint guard inside the
  legalizer, so a structurally changed design is rejected loudly
  (``cache: "stale"``) and re-solved cold.
* **Deadlines** — a request's ``deadline_seconds`` bounds queue wait +
  solve; an expired job answers ``504`` and the batcher drops it from
  the queue unsolved (a job that expires mid-solve has its result
  discarded).
* **Graceful drain** — SIGTERM/SIGINT stop the listener, finish every
  queued and in-flight job, then exit; new jobs during the drain get
  ``503``.

Telemetry: every batch runs under its own
:func:`repro.telemetry.session` on the worker thread (sessions are
context-local, so concurrent batches cannot clobber each other); the
batch's metrics snapshot is folded into one long-lived service registry
that ``GET /metrics`` exports in Prometheus text format.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.core.multi import DesignJob, legalize_many
from repro.core.setup_cache import ReuseCache
from repro.core.state import SolverState
from repro.service.protocol import (
    LegalizeRequest,
    LegalizeResponse,
    ProtocolError,
)
from repro.service.store import WarmStateStore
from repro.telemetry import MetricsRegistry, prometheus_text

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The ``Retry-After`` hint, in seconds, sent with a 429 (queue full).
RETRY_AFTER_SECONDS = 1

#: Latency samples kept for the /stats percentiles.
LATENCY_RESERVOIR = 1024


@dataclass
class ServiceConfig:
    """Tunables of the server process."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port is in ``server.port``).
    port: int = 8787
    #: Bounded job queue; a full queue answers 429 + Retry-After.
    queue_limit: int = 64
    #: Cap on the queued jobs a free worker takes into one stacked solve.
    max_batch: int = 16
    #: Worker threads executing batches; a queued job starts as soon as
    #: one is idle.
    workers: int = 2
    #: Deadline applied when a request does not send one; None = none.
    default_deadline_seconds: Optional[float] = None
    #: Warm-state store bounds (see :class:`WarmStateStore`); the byte
    #: cap counts states and checked-in setup caches.
    store_max_entries: Optional[int] = 1024
    store_max_bytes: Optional[int] = 256 * 1024 * 1024
    store_ttl_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # One source of truth for the server knobs (domains + defaults):
        # repro.scenario.specs.SERVICE_SPEC.  The CLI surfaces the same
        # violations as exit 2 before this constructor can raise.
        from repro.scenario.spec import format_violations
        from repro.scenario.specs import SERVICE_SPEC

        violations = SERVICE_SPEC.validate(self)
        if violations:
            raise ValueError(
                f"invalid ServiceConfig: {format_violations(violations)}"
            )


@dataclass
class _Job:
    """One queued legalization with its completion future."""

    request: LegalizeRequest
    future: "asyncio.Future[LegalizeResponse]"
    accepted_at: float
    cancelled: bool = False
    cache: str = "miss"


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: The declared ``Content-Length`` exceeds ``MAX_BODY_BYTES``; the
    #: body was left unread.
    too_large: bool = False


class LegalizationServer:
    """The service process.  ``asyncio.run(server.serve())`` blocks until
    a drain completes (SIGTERM/SIGINT or ``POST /shutdown``)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = WarmStateStore(
            max_entries=self.config.store_max_entries,
            max_bytes=self.config.store_max_bytes,
            ttl_seconds=self.config.store_ttl_seconds,
        )
        #: The long-lived registry /metrics exports.  Well-known solver
        #: metric families are pre-registered so scrapes see them (at
        #: zero) before the first batch runs.
        self.metrics = MetricsRegistry()
        for name in (
            "service.requests",
            "service.responses",
            "service.rejected_busy",
            "service.rejected_draining",
            "service.deadline_timeouts",
            "service.errors",
            "service.batches",
            "service.cache_hits",
            "service.cache_misses",
            "service.cache_stale",
            "service.cache_bypass",
            "setup.cache_hit",
            "setup.cache_miss",
            "setup.cache_stale",
            "resilience.escalated_shards",
            "batch.shards",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("service.request_seconds")
        self.metrics.histogram("service.batch_size")
        self._latencies: deque = deque(maxlen=LATENCY_RESERVOIR)
        self._latency_lock = threading.Lock()
        self._responses_by_status: Dict[int, int] = {}
        self._started_at = time.monotonic()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._pending: set = set()
        self._conn_tasks: set = set()
        self._stop_event: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listener and start the batcher (non-blocking)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._stop_event = asyncio.Event()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-legalize",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher_task = asyncio.create_task(self._batcher())
        with suppress(NotImplementedError, RuntimeError):
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self.request_shutdown)

    async def serve(self, on_ready=None) -> None:
        """Start, then block until a graceful drain completes.
        ``on_ready(server)`` is called once the port is bound."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._drain()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        self._draining = True
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    async def _drain(self) -> None:
        """Stop accepting, finish queued + in-flight jobs, tear down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Jobs already accepted keep flowing through the batcher until
        # every completion future resolves, and every open connection
        # finishes writing its response before teardown.
        while self._pending:
            await asyncio.wait(list(self._pending))
        while self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks))
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._batcher_task
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------- batching
    async def _batcher(self) -> None:
        """Hand batches to free workers: once one of the ``workers`` is
        idle, take the next job and every job already queued behind it
        (up to ``max_batch``).  The backlog therefore waits in the
        bounded queue, where ``queue_limit`` and deadlines cover it,
        never in the executor's own unbounded work queue."""
        assert self._queue is not None and self._loop is not None
        idle = asyncio.Semaphore(self.config.workers)

        def batch_done(fut: "asyncio.Future") -> None:
            idle.release()
            if not fut.cancelled() and fut.exception() is not None:
                # _execute_batch answers per-job failures itself;
                # reaching here means the batch runner itself is broken.
                self.metrics.counter("service.errors").inc()

        while True:
            await idle.acquire()
            batch = [await self._queue.get()]
            while (
                len(batch) < self.config.max_batch
                and not self._queue.empty()
            ):
                batch.append(self._queue.get_nowait())
            self.metrics.gauge("service.queue_depth").set(
                self._queue.qsize()
            )
            live = [j for j in batch if not j.cancelled]
            for j in batch:
                if j.cancelled:
                    self._complete(j, None)
            if not live:
                idle.release()
                continue
            self.metrics.counter("service.batches").inc()
            self.metrics.histogram("service.batch_size").observe(len(live))
            fut = self._loop.run_in_executor(
                self._executor, self._execute_batch, live
            )
            fut.add_done_callback(batch_done)

    def _execute_batch(self, batch: List[_Job]) -> None:
        """Worker-thread body: warm lookup → stacked solve → respond."""
        jobs: List[DesignJob] = []
        # Setup-reuse caches are *checked out* of the store for the
        # duration of the batch (a run swaps in its own generation of
        # setups, so a concurrent batch must not share them) and checked
        # back in below.  Jobs in this batch sharing a key share the cache —
        # jobs that solve alone run sequentially inside legalize_many,
        # and merged groups skip the cache entirely.
        reuse_by_key: Dict[str, ReuseCache] = {}
        for job in batch:
            req = job.request
            state = None
            reuse = None
            if req.warm:
                state = self.store.get(req.cache_key)
                job.cache = "hit" if state is not None else "miss"
                reuse = reuse_by_key.get(req.cache_key)
                if reuse is None:
                    reuse = (
                        self.store.take_reuse(req.cache_key) or ReuseCache()
                    )
                    reuse_by_key[req.cache_key] = reuse
            else:
                job.cache = "bypass"
            jobs.append(
                DesignJob(
                    design=req.design,
                    config=req.legalizer_config(),
                    warm_state=state,
                    reuse=reuse,
                )
            )

        with telemetry.session() as tel:
            try:
                results: List[Any] = legalize_many(jobs)
            except Exception:
                # A poisoned batch: isolate the failure by re-running
                # each job alone so one bad design cannot take down its
                # batchmates.
                results = []
                for dj in jobs:
                    try:
                        results.append(legalize_many([dj])[0])
                    except Exception as exc:  # noqa: BLE001
                        results.append(exc)
            snapshot = tel.metrics.snapshot()
        self.metrics.merge_snapshot(snapshot)
        # Check every borrowed (or freshly created) reuse cache back in —
        # even after a poisoned batch: a cache keeps a run's setups only
        # once all of them are built, together with the matrices they
        # came from, and every run re-checks its own matrices against
        # those, so a cache from a failed solve never serves wrong setups.
        for key, cache in reuse_by_key.items():
            self.store.give_reuse(key, cache)

        assert self._loop is not None
        for job, result in zip(batch, results):
            if isinstance(result, Exception):
                self.metrics.counter("service.errors").inc()
                response = LegalizeResponse.failure(
                    job.request, f"{type(result).__name__}: {result}"
                )
            else:
                cache = job.cache
                if cache == "hit" and result.warm_start != "state":
                    cache = "stale"
                self.metrics.counter(f"service.cache_{_cache_bucket(cache)}").inc()
                if (
                    job.request.store_state
                    and result.kkt_solution is not None
                ):
                    self.store.put(
                        job.request.cache_key,
                        SolverState.from_result(job.request.design, result),
                    )
                response = LegalizeResponse.from_result(
                    job.request, result, cache
                )
            self._loop.call_soon_threadsafe(self._complete, job, response)

    def _complete(
        self, job: _Job, response: Optional[LegalizeResponse]
    ) -> None:
        """Loop-thread completion: resolve the waiter, record latency."""
        if job.future.done():
            return
        if response is None or job.cancelled:
            job.future.cancel()
            return
        elapsed = time.monotonic() - job.accepted_at
        self.metrics.histogram("service.request_seconds").observe(elapsed)
        with self._latency_lock:
            self._latencies.append(elapsed)
        job.future.set_result(response)

    # ------------------------------------------------------------- HTTP
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_one(reader, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                status, payload, extra = 400, {"error": "malformed request"}, {}
            else:
                status, payload, extra = await self._route(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001
            self.metrics.counter("service.errors").inc()
            status, payload, extra = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        try:
            await self._write_response(writer, status, payload, extra)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()
        self._responses_by_status[status] = (
            self._responses_by_status.get(status, 0) + 1
        )
        self.metrics.counter("service.responses").inc()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_HttpRequest]:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 3:
                return None
            method, path = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except (ConnectionError, ValueError):
            # ValueError: readline's answer to a line over the reader's
            # 64 KiB limit.
            return None
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            return None  # not a decimal length: a negative, a sign, junk
        length = int(declared)
        if length > MAX_BODY_BYTES:
            return _HttpRequest(method, path, headers, too_large=True)
        try:
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        return _HttpRequest(method, path, headers, body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Dict[str, str],
    ) -> None:
        if isinstance(payload, (bytes, str)):
            body = payload.encode() if isinstance(payload, str) else payload
            content_type = extra_headers.pop(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in extra_headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    async def _route(
        self, request: _HttpRequest
    ) -> Tuple[int, Any, Dict[str, str]]:
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, self._health_payload(), {}
        if path == "/stats" and method == "GET":
            return 200, self.stats(), {}
        if path == "/metrics" and method == "GET":
            return 200, self.metrics_text(), {}
        if path == "/shutdown" and method == "POST":
            assert self._loop is not None
            self._loop.call_soon(self.request_shutdown)
            return 200, {"status": "draining"}, {}
        if path == "/legalize":
            if method != "POST":
                return 405, {"error": "POST required"}, {"Allow": "POST"}
            return await self._handle_legalize(request)
        return 404, {"error": f"no route {method} {path}"}, {}

    async def _handle_legalize(
        self, request: _HttpRequest
    ) -> Tuple[int, Any, Dict[str, str]]:
        self.metrics.counter("service.requests").inc()
        if request.too_large:
            return 413, {"error": "request body too large"}, {}
        if self._draining:
            self.metrics.counter("service.rejected_draining").inc()
            return 503, {"error": "server is draining"}, {}
        try:
            parsed = LegalizeRequest.from_dict(json.loads(request.body))
        except (json.JSONDecodeError, ProtocolError) as exc:
            return 400, {"error": str(exc)}, {}

        assert self._queue is not None and self._loop is not None
        job = _Job(
            request=parsed,
            future=self._loop.create_future(),
            accepted_at=time.monotonic(),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.metrics.counter("service.rejected_busy").inc()
            return (
                429,
                {"error": "job queue is full; retry later"},
                {"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        self.metrics.gauge("service.queue_depth").set(self._queue.qsize())
        self._pending.add(job.future)
        job.future.add_done_callback(self._pending.discard)

        deadline = (
            parsed.deadline_seconds
            if parsed.deadline_seconds is not None
            else self.config.default_deadline_seconds
        )
        try:
            if deadline is None:
                response = await asyncio.shield(job.future)
            else:
                response = await asyncio.wait_for(
                    asyncio.shield(job.future), deadline
                )
        except asyncio.TimeoutError:
            job.cancelled = True
            if not job.future.done():
                job.future.cancel()
            self.metrics.counter("service.deadline_timeouts").inc()
            return (
                504,
                {"error": f"deadline of {deadline:g}s expired", "key": parsed.cache_key},
                {},
            )
        except asyncio.CancelledError:
            if job.future.cancelled():
                return 503, {"error": "job cancelled"}, {}
            raise
        return 200, response.to_dict(), {}

    # ------------------------------------------------------------- introspection
    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_limit": self.config.queue_limit,
        }

    def stats(self) -> Dict[str, Any]:
        with self._latency_lock:
            samples = sorted(self._latencies)
        def pct(p: float) -> Optional[float]:
            if not samples:
                return None
            return samples[min(len(samples) - 1, int(p * len(samples)))]
        snap = self.metrics.snapshot()
        counters = {
            name: int(s["value"])
            for name, s in snap.items()
            if s.get("type") == "counter" and name.startswith("service.")
        }
        return {
            **self._health_payload(),
            "workers": self.config.workers,
            "max_batch": self.config.max_batch,
            "counters": counters,
            "responses_by_status": dict(self._responses_by_status),
            "latency_seconds": {
                "count": len(samples),
                "p50": pct(0.50),
                "p95": pct(0.95),
            },
            "store": self.store.stats(),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition of the service-wide registry plus
        live store/queue gauges refreshed at scrape time."""
        store_stats = self.store.stats()
        # The store keeps its own monotonic tallies; mirror them into
        # counters by topping up the delta at scrape time.
        self.metrics.gauge("service.store_entries").set(store_stats["entries"])
        self.metrics.gauge("service.store_bytes").set(store_stats["bytes"])
        for metric, value in (
            ("service.store_hits", store_stats["hits"]),
            ("service.store_misses", store_stats["misses"]),
            (
                "service.store_evictions",
                store_stats["evictions"] + store_stats["expirations"],
            ),
        ):
            counter = self.metrics.counter(metric)
            delta = float(value) - counter.value
            if delta > 0:
                counter.inc(delta)
        if self._queue is not None:
            self.metrics.gauge("service.queue_depth").set(self._queue.qsize())
        return prometheus_text(self.metrics)


def _cache_bucket(cache: str) -> str:
    return {
        "hit": "hits",
        "miss": "misses",
        "stale": "stale",
        "bypass": "bypass",
    }.get(cache, "misses")


def run_server(config: Optional[ServiceConfig] = None, on_ready=None) -> None:
    """Blocking entry point used by ``repro serve``."""
    asyncio.run(LegalizationServer(config).serve(on_ready=on_ready))
