"""End-to-end tests of the legalization service (`repro serve`).

Each test boots a real server on an ephemeral port in a background
thread and talks to it over HTTP with the stdlib client — the same path
production traffic takes.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time
from contextlib import contextmanager, suppress

import pytest

from repro import cli
from repro.benchgen.generator import generate_benchmark
from repro.core.legalizer import legalize
from repro.core.multi import legalize_many
from repro.io.jsonio import design_to_dict, load_design, save_design
from repro.service import (
    LegalizationServer,
    LegalizeRequest,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service import server as server_module


@contextmanager
def running_server(**cfg_kwargs):
    cfg_kwargs.setdefault("port", 0)
    server = LegalizationServer(ServiceConfig(**cfg_kwargs))
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            server.serve(on_ready=lambda s: ready.set())
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "server did not start"
    client = ServiceClient("127.0.0.1", server.port)
    client.wait_ready()
    try:
        yield server, client, thread
    finally:
        if thread.is_alive():
            with suppress(Exception):
                client.shutdown()
            thread.join(30)
        assert not thread.is_alive(), "server thread did not drain"


def make_design(seed: int = 7, scale: float = 0.01, name: str = None):
    design = generate_benchmark("fft_2", scale=scale, seed=seed)
    if name is not None:
        design.name = name
    return design


class HeldWorker:
    """Stands in for the server's ``legalize_many``: records the design
    names of every call, and holds the first call (and with it the
    worker running it) until :meth:`release`.  Leaving the ``with``
    block releases it, so a failed test cannot wedge the drain."""

    def __init__(self, monkeypatch) -> None:
        self.calls = []
        self.response = None
        self.entered = threading.Event()
        self._release = threading.Event()
        monkeypatch.setattr(server_module, "legalize_many", self)

    def __call__(self, jobs):
        self.calls.append([job.design.name for job in jobs])
        if len(self.calls) == 1:
            self.entered.set()
            self._release.wait(30)
        return legalize_many(jobs)

    def release(self) -> None:
        self._release.set()

    def __enter__(self) -> "HeldWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def hold(self, client) -> threading.Thread:
        """Submit a job named ``hold`` from a thread and wait until it
        occupies a worker; its answer lands in :attr:`response`."""

        def submit():
            self.response = client.legalize(make_design(name="hold"))

        thread = threading.Thread(target=submit)
        thread.start()
        assert self.entered.wait(30), "the held job never reached a worker"
        return thread


def wait_for_queue_depth(client, depth: int) -> None:
    deadline = time.monotonic() + 10
    while client.healthz()["queue_depth"] < depth:
        assert time.monotonic() < deadline, f"queue never reached {depth}"
        time.sleep(0.01)


def perturb(design, cells: int = 5, dx: float = 0.05) -> None:
    for cell in list(design.movable_cells)[:cells]:
        cell.gp_x += dx


# ---------------------------------------------------------------- happy path
def test_cold_then_warm_then_stale():
    with running_server() as (server, client, _):
        r1 = client.legalize(make_design(), key="top")
        assert r1.ok and r1.cache == "miss" and r1.warm_start == "gp"
        assert r1.audit_clean and r1.converged

        nudged = make_design()
        perturb(nudged)
        r2 = client.legalize(nudged, key="top")
        assert r2.cache == "hit" and r2.warm_start == "state"
        assert r2.iterations <= 5  # warm ECO resubmit: a handful of sweeps
        assert r2.audit_clean

        different = make_design(seed=9, scale=0.01)
        r3 = client.legalize(different, key="top")
        assert r3.cache == "stale" and r3.warm_start == "gp"
        assert r3.warm_start_rejected  # the reason is spelled out
        assert r3.audit_clean

        stats = client.stats()
        counters = stats["counters"]
        assert counters["service.cache_misses"] == 1
        assert counters["service.cache_hits"] == 1
        assert counters["service.cache_stale"] == 1
        assert stats["store"]["entries"] == 1


def test_service_positions_match_offline_state_cli(tmp_path):
    """The acceptance invariant: cold submit + perturbed warm resubmit
    through the service produce positions bit-identical to the same
    sequence run offline via ``repro legalize --state``."""
    cold_path = tmp_path / "cold.json"
    warm_path = tmp_path / "warm.json"
    save_design(make_design(), str(cold_path))
    nudged = make_design()
    perturb(nudged)
    save_design(nudged, str(warm_path))

    state = tmp_path / "state.npz"
    off_cold = tmp_path / "off_cold.json"
    off_warm = tmp_path / "off_warm.json"
    assert cli.main(
        ["legalize", str(cold_path), "--state", str(state),
         "--output", str(off_cold)]
    ) == 0
    assert cli.main(
        ["legalize", str(warm_path), "--state", str(state),
         "--output", str(off_warm)]
    ) == 0

    with running_server() as (_, client, __):
        svc_cold = load_design(str(cold_path))
        r1 = client.legalize(svc_cold, key="eco")
        client.apply(svc_cold, r1)
        svc_warm = load_design(str(warm_path))
        r2 = client.legalize(svc_warm, key="eco")
        client.apply(svc_warm, r2)

    assert r1.cache == "miss" and r2.cache == "hit"
    assert r2.warm_start == "state" and r2.iterations <= 5
    for served, offline_path in (
        (svc_cold, off_cold),
        (svc_warm, off_warm),
    ):
        offline = load_design(str(offline_path))
        assert [(c.name, c.x, c.y, c.flipped) for c in served.cells] == [
            (c.name, c.x, c.y, c.flipped) for c in offline.cells
        ]


def test_lone_cold_request_stores_library_kkt_solution():
    """A request alone in its batch runs ``legalize()``'s own phases, so
    the warm state it stores is the library's KKT solution bit for bit
    (on a blockage design, where a single-component stacked solve would
    stop its shards elsewhere)."""

    def blocked():
        return generate_benchmark(
            "fft_2", scale=0.02, seed=3, blockage_fraction=0.15
        )

    with running_server() as (server, client, _):
        r = client.legalize(blocked(), key="blk")
        assert r.ok and r.cache == "miss"
        state = server.store.get("blk")
    want = legalize(blocked())
    assert state is not None
    assert state.z.tobytes() == want.kkt_solution.tobytes()
    assert r.iterations == want.iterations


def test_warm_bypass_and_store_opt_out():
    with running_server() as (_, client, __):
        client.legalize(make_design(), key="k")
        r = client.legalize(make_design(), key="k", warm=False)
        assert r.cache == "bypass" and r.warm_start == "gp"

        r = client.legalize(make_design(seed=11), key="fresh",
                            store_state=False)
        assert r.cache == "miss"
        r = client.legalize(make_design(seed=11), key="fresh")
        assert r.cache == "miss"  # nothing was stored


def test_concurrent_submissions_share_batches(monkeypatch):
    with running_server(workers=1, max_batch=8) as (
        _,
        client,
        __,
    ), HeldWorker(monkeypatch) as held:
        holder = held.hold(client)
        designs = [
            make_design(seed=s, scale=0.005, name=f"d{s}") for s in range(4)
        ]
        results = [None] * 4

        def submit(i):
            results[i] = client.legalize(designs[i], key=f"d{i}")

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        wait_for_queue_depth(client, 4)
        held.release()
        for t in threads + [holder]:
            t.join(60)
        assert held.response.ok
        assert all(r is not None and r.ok and r.audit_clean for r in results)
        counters = client.stats()["counters"]
        assert counters["service.requests"] == 5
        # All four queued behind the busy worker, so the worker takes
        # them together when it frees up: one stacked solve.
        assert counters["service.batches"] == 2
        assert sorted(held.calls[1]) == ["d0", "d1", "d2", "d3"]


# ---------------------------------------------------------------- protection
def test_backpressure_full_queue_answers_429():
    with running_server(queue_limit=2) as (
        server,
        client,
        _,
    ):
        # Freeze the batcher so the queue can only fill.
        server._loop.call_soon_threadsafe(server._batcher_task.cancel)
        time.sleep(0.2)

        def doomed():
            with suppress(ServiceError):
                client.legalize(make_design(), key="q", deadline_seconds=1.0)

        fillers = [threading.Thread(target=doomed) for _ in range(2)]
        for t in fillers:
            t.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if client.healthz()["queue_depth"] >= 2:
                break
            time.sleep(0.02)
        with pytest.raises(ServiceError) as excinfo:
            client.legalize(make_design(), key="overflow")
        assert excinfo.value.status == 429
        assert excinfo.value.retriable
        for t in fillers:
            t.join(10)  # their deadlines expire with 504s
        counters = client.stats()["counters"]
        assert counters["service.rejected_busy"] >= 1
        assert counters["service.deadline_timeouts"] >= 2


def test_queue_limit_bounds_the_backlog_behind_busy_workers(monkeypatch):
    """The backlog waits in the bounded queue, not in the executor: with
    the only worker busy, ``queue_limit`` jobs fill the queue and the
    next one answers 429."""
    with running_server(queue_limit=2, workers=1) as (
        _,
        client,
        __,
    ), HeldWorker(monkeypatch) as held:
        holder = held.hold(client)
        results = {}

        def submit(name):
            results[name] = client.legalize(make_design(name=name))

        fillers = [
            threading.Thread(target=submit, args=(name,))
            for name in ("q1", "q2")
        ]
        for t in fillers:
            t.start()
        wait_for_queue_depth(client, 2)
        with pytest.raises(ServiceError) as excinfo:
            client.legalize(make_design(name="overflow"))
        assert excinfo.value.status == 429
        assert client.healthz()["queue_depth"] == 2
        held.release()
        for t in fillers + [holder]:
            t.join(60)
        assert held.response.ok
        assert all(r.ok and r.audit_clean for r in results.values())
        assert sorted(results) == ["q1", "q2"]
        assert client.stats()["counters"]["service.rejected_busy"] == 1
        assert "overflow" not in sum(held.calls, [])


def test_deadline_expiry_answers_504(monkeypatch):
    """A job whose deadline expires while it waits behind a busy worker
    answers 504 and is dropped from the queue: it never reaches
    ``legalize_many``."""
    with running_server(workers=1) as (_, client, __), HeldWorker(
        monkeypatch
    ) as held:
        holder = held.hold(client)
        with pytest.raises(ServiceError) as excinfo:
            client.legalize(make_design(name="late"), deadline_seconds=0.05)
        assert excinfo.value.status == 504
        held.release()
        holder.join(60)
        assert held.response.ok
        # The one worker takes queued jobs in order, so by the time this
        # later job is answered the expired one has been dropped.
        assert client.legalize(make_design(name="after")).ok
        assert held.calls == [["hold"], ["after"]]
        assert client.stats()["counters"]["service.deadline_timeouts"] == 1


def test_draining_rejects_new_work_with_503():
    with running_server() as (server, client, _):
        server._draining = True
        with pytest.raises(ServiceError) as excinfo:
            client.legalize(make_design(), key="x")
        assert excinfo.value.status == 503
        assert excinfo.value.retriable
        assert client.healthz()["status"] == "draining"
        server._draining = False  # let the fixture shut down normally


def test_shutdown_drains_in_flight_jobs(monkeypatch):
    with running_server(workers=1) as (
        server,
        client,
        thread,
    ), HeldWorker(monkeypatch) as held:
        holder = held.hold(client)
        result = {}

        def submit():
            result["r"] = client.legalize(make_design(name="queued"))

        t = threading.Thread(target=submit)
        t.start()
        wait_for_queue_depth(client, 1)  # queued behind the busy worker
        client.shutdown()
        deadline = time.monotonic() + 10
        while not server._draining:
            assert time.monotonic() < deadline, "shutdown never began"
            time.sleep(0.01)
        held.release()
        for worker in (t, holder):
            worker.join(30)
        thread.join(30)
        assert not thread.is_alive()
        assert held.response.ok
        assert result["r"].ok and result["r"].audit_clean
        assert held.calls == [["hold"], ["queued"]]
    with pytest.raises(OSError):
        ServiceClient("127.0.0.1", client.port).healthz()


# ---------------------------------------------------------------- plumbing
def test_http_error_paths():
    with running_server() as (_, client, __):
        status, _, _ = client._http("GET", "/nope", None)
        assert status == 404
        status, _, _ = client._http("GET", "/legalize", None)
        assert status == 405
        status, payload, _ = client._http("POST", "/legalize", {"bad": 1})
        assert status == 400 and "design" in payload["error"]


def raw_post(port, content_length, body=b"", extra_header=""):
    """POST /legalize over a bare socket with a hand-written
    ``Content-Length``; returns ``(status, decoded JSON body)``."""
    head = (
        f"POST /legalize HTTP/1.1\r\nHost: localhost\r\n{extra_header}"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    status_line, _, rest = data.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def test_malformed_content_length_answers_400():
    """A non-integer or negative length is a malformed request (it used
    to answer 500 and 413), a one-byte NUL body is just a bad body (it
    used to be the 413 marker), and only a declared length over the cap
    answers 413."""
    with running_server() as (server, client, _):
        for length in ("twelve", "-5", "1.5", "+3", "\u00b2"):
            status, payload = raw_post(server.port, length)
            assert (length, status) == (length, 400)
            assert payload["error"] == "malformed request"
        status, payload = raw_post(server.port, 1, b"\x00")
        assert status == 400 and "too large" not in payload["error"]
        # A header line over the reader's 64 KiB limit used to answer 500.
        status, payload = raw_post(
            server.port, 0, extra_header="X-Big: " + "a" * 70_000 + "\r\n"
        )
        assert status == 400 and payload["error"] == "malformed request"
        status, payload = raw_post(
            server.port, server_module.MAX_BODY_BYTES + 1
        )
        assert status == 413 and payload["error"] == "request body too large"
        counters = client.stats()["counters"]
        assert counters["service.errors"] == 0
        assert counters["service.batches"] == 0


def test_bad_directives_answer_400_before_queueing():
    body = LegalizeRequest(design=make_design(scale=0.005)).to_dict()
    with running_server() as (_, client, __):
        for name, value in (
            ("deadline_seconds", "soon"),
            ("deadline_seconds", math.nan),
            ("deadline_seconds", True),
            ("warm", "false"),
            ("store_state", "no"),
        ):
            status, payload, _ = client._http(
                "POST", "/legalize", dict(body, **{name: value})
            )
            assert status == 400, (name, value, payload)
            assert name in payload["error"]
        counters = client.stats()["counters"]
        assert counters["service.errors"] == 0
        assert counters["service.batches"] == 0
        assert counters["service.deadline_timeouts"] == 0


def test_v1_body_answers_400():
    """Protocol v1 sent one JSON object per cell; the server speaks only
    v2 and says so."""
    design = make_design(scale=0.005)
    v1 = {"protocol_version": 1, "design": design_to_dict(design)}
    with running_server() as (_, client, __):
        status, payload, _ = client._http("POST", "/legalize", v1)
        assert status == 400
        assert payload["error"] == "unsupported protocol version 1"
        assert client.stats()["counters"]["service.batches"] == 0


def test_metrics_and_stats_endpoints():
    with running_server() as (_, client, __):
        client.legalize(make_design(), key="m")
        text = client.metrics_text()
        for family in (
            "repro_service_requests",
            "repro_service_request_seconds_count",
            "repro_service_store_entries",
            "repro_resilience_escalated_shards",
            "repro_batch_shards",
            "repro_mmsim_iterations",
        ):
            assert family in text, f"{family} missing from /metrics"
        assert "# TYPE repro_service_requests counter" in text

        stats = client.stats()
        assert stats["status"] == "ok"
        assert stats["latency_seconds"]["count"] == 1
        assert stats["latency_seconds"]["p50"] is not None
        assert stats["responses_by_status"].get("200", 0) or stats[
            "responses_by_status"
        ].get(200, 0)
        health = client.healthz()
        assert health["status"] == "ok" and health["queue_limit"] == 64
