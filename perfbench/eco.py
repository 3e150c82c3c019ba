"""eco-service workload: a ``repro serve --port 0`` child process driven by
one closed-loop ``ServiceClient`` caller.

The caller owns four keys.  Per key and cycle it sends one cold submit
(``warm=False``, which still writes the store) and then three warm
resubmits, each with another ~0.5% of cells' GP x nudged by at most one
site, which read the store's state and setup cache.  The 1:3 write:read
mix puts p50 in the warm band and p90 in the cold band.

One caller, not two: with two client threads the requests' latencies
depend on how the threads' cycles interleave in the server's batcher,
and p90 spread 25-30% between runs on a 2-vCPU machine.  With one caller
the server is idle between requests, which is when the calibration
kernel (``perfbench.speed``) runs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from perfbench import checks, library, speed, stats
from perfbench.inputs import (
    SETUP_DESIGN, combine, eco_variants, fingerprint, make_pool, set_gp_x,
    workload_rng,
)
from perfbench.spans import SpanRecorder
from repro.benchgen import generate_benchmark
from repro.core.legalizer import legalize
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import LegalizeRequest, LegalizeResponse

THREADS = 1
KEYS_PER_THREAD = 4
WARM_RESUBMITS = 3

#: Server stage spans (``response.stage_seconds``) per legalizer phase.
PHASES = {
    "legalizer.prepare_s": ("row_assign", "rebalance", "split", "build_qp"),
    "legalizer.build_systems_s": ("splitting", "theorem2", "stack"),
    "legalizer.solve_s": ("mmsim",),
    "legalizer.finish_s": ("restore", "tetris", "audit", "metrics"),
}


def spawn_server(root: str, env: Dict[str, str], log) -> tuple:
    """Start ``repro serve --port 0``; returns ``(process, port, seconds
    from spawn until /healthz answers)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        port = int(match.group(1))
        ServiceClient("127.0.0.1", port).wait_ready(timeout=60, interval=0.002)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - start


def stop_server(proc) -> None:
    """SIGTERM (the server drains), then wait; kill if it hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Slot:
    """One key: its design, the cold input and warm variants, and the
    answers seen so far per step (0 = cold)."""

    def __init__(self, key: str, design, variants: List[np.ndarray]) -> None:
        self.key = key
        self.design = design
        self.table = checks.cell_table(design)
        self.gp_y = np.array([c.gp_y for c in design.cells])
        self.inputs = [np.array([c.gp_x for c in design.cells])] + variants
        self.reference: Optional[str] = None
        self.first: Dict[int, tuple] = {}
        self.displacement: Dict[int, float] = {}
        self.answered: Dict[int, int] = {}

    def compute_reference(self) -> None:
        """The library ``legalize()`` answer for the cold input."""
        snapshot = self.design.snapshot_positions()
        legalize(self.design)
        self.reference = checks.digest(*checks.design_positions(self.design))
        self.design.restore_positions(snapshot)

    def fingerprints(self) -> List[str]:
        """Fingerprints of the cold input and each warm variant."""
        prints = []
        for gp_x in self.inputs:
            set_gp_x(self.design, gp_x)
            prints.append(fingerprint(self.design))
        set_gp_x(self.design, self.inputs[0])
        return prints

    def record(self, step: int, response) -> str:
        """Check one response; returns a failure reason or ''."""
        if not response.ok:
            return f"server reported failure: {response.error}"
        x, y, flipped = checks.response_positions(self.table, response.positions)
        answer = checks.digest(x, y, flipped)
        if step == 0 and answer != self.reference:
            return "cold answer differs from the library legalize() answer"
        first = self.first.get(step)
        if first is None:
            self.first[step] = (answer, x, y)
            self.displacement[step] = checks.displacement_sites(
                self.design, self.inputs[step], self.gp_y, x, y, self.table.fixed
            )
        elif first[0] != answer:
            return f"step {step} answer differs from its first answer"
        self.answered[step] = self.answered.get(step, 0) + 1
        return ""

    def audit(self) -> List[str]:
        failures = []
        for step, (_, x, y) in sorted(self.first.items()):
            problems = checks.legality_violations(self.design, self.table, x, y)
            if problems:
                failures.extend(
                    f"{self.key} step {step} answer is illegal: {'; '.join(problems)}"
                    for _ in range(self.answered.get(step, 0))
                )
        return failures


def make_slots(seed: int) -> List[Slot]:
    slots = []
    for i, design in enumerate(make_pool("eco-service", seed)):
        variants = eco_variants(
            design, workload_rng("eco-service", seed, 1000 + i), WARM_RESUBMITS
        )
        slot = Slot(f"t{i // KEYS_PER_THREAD}-k{i % KEYS_PER_THREAD}", design, variants)
        slot.compute_reference()
        slots.append(slot)
    return slots


class Reply(NamedTuple):
    """What the metrics need from one completed request."""

    step: int
    latency: float
    iterations: int
    warm_start: str
    runtime_seconds: float
    stage_seconds: Dict[str, float]
    num_illegal: int
    num_cells: int
    #: Traced requests only: latency minus server runtime minus codec spans.
    wait: Optional[float]
    traced: bool
    #: The calibration kernel's time right after the request.
    kernel: float


class Samples:
    """Completed requests, shared by the client threads."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.lock = threading.Lock()
        self.replies: List[Reply] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.last_done = 0.0
        self.window = 0.0

    def done(self) -> bool:
        """Past the deadline with 100 requests done (or a failure seen)."""
        with self.lock:
            return time.perf_counter() >= self.deadline and (
                len(self.replies) >= stats.MIN_TAIL_SAMPLES or bool(self.failures)
            )


def client_loop(port, slots, samples, recorder, thread) -> None:
    """One closed-loop caller.  A crash of the loop itself is reported as a
    failure rather than ending the thread silently."""
    try:
        _client_loop(port, slots, samples, recorder, thread)
    except Exception as exc:  # noqa: BLE001
        with samples.lock:
            samples.failures.append(f"client thread {thread}: {type(exc).__name__}: {exc}")


def _client_loop(port, slots, samples, recorder, thread) -> None:
    """With a recorder, every other cycle is traced: a span around the call
    plus standalone codec timings."""
    client = ServiceClient("127.0.0.1", port, timeout=60)
    cycle = 0
    while True:
        traced = recorder is not None and cycle % 2 == 1
        cycle += 1
        for slot in slots:
            for step in range(1 + WARM_RESUBMITS):
                if samples.done():
                    return
                with samples.lock:
                    samples.attempted += 1
                    rid = f"t{thread}-r{samples.attempted}"
                set_gp_x(slot.design, slot.inputs[step])
                try:
                    t0 = time.perf_counter()
                    if traced:
                        with recorder.span("request", rid) as root:
                            with recorder.span("flow", rid, root):
                                response = client.legalize(
                                    slot.design, key=slot.key, warm=step > 0
                                )
                    else:
                        response = client.legalize(slot.design, key=slot.key, warm=step > 0)
                    latency = time.perf_counter() - t0
                    reason = slot.record(step, response)
                except ServiceError as exc:
                    reason = f"HTTP {exc.status}: {exc}"
                except Exception as exc:  # noqa: BLE001  (a failed request is data)
                    reason = f"{type(exc).__name__}: {exc}"
                if reason:
                    with samples.lock:
                        samples.failures.append(f"request {rid} ({slot.key} step {step}): {reason}")
                    continue
                wait = (
                    time_codecs(recorder, rid, root, slot, step, response, latency)
                    if traced else None
                )
                reply = Reply(
                    step, latency, response.iterations, response.warm_start,
                    response.runtime_seconds, response.stage_seconds,
                    response.num_illegal, response.num_cells, wait, traced,
                    speed.kernel_seconds(),
                )
                with samples.lock:
                    samples.replies.append(reply)
                    samples.last_done = time.perf_counter()


def time_codecs(recorder, rid, root, slot, step, response, latency) -> float:
    """Standalone timings of the codec calls one request went through;
    returns the request's remaining wait (transport, queue, batching
    window, server-side encode): latency minus server runtime minus the
    codec spans."""
    request = LegalizeRequest(design=slot.design, key=slot.key, warm=step > 0)
    with recorder.span("client.encode", rid, root) as encode:
        body = json.dumps(request.to_dict())
    payload = json.loads(body)
    with recorder.span("protocol.decode", rid, root) as parse:
        LegalizeRequest.from_dict(payload)
    reply = json.dumps(response.to_dict())
    with recorder.span("client.decode", rid, root) as decode:
        LegalizeResponse.from_dict(json.loads(reply))
    codec = sum(recorder.seconds(span) for span in (encode, parse, decode))
    return latency - response.runtime_seconds - codec


def warm_up(port: int) -> None:
    """One small request, so the fresh server's lazy state is filled before
    the window (a long-running service has paid it long ago)."""
    profile, scale, seed = SETUP_DESIGN
    design = generate_benchmark(profile, scale=scale, seed=seed)
    response = ServiceClient("127.0.0.1", port, timeout=60).legalize(
        design, key="warm-up", warm=False, store_state=False
    )
    if not response.ok:
        raise RuntimeError(f"warm-up request failed: {response.error}")


def drive(port: int, slots: List[Slot], seconds: float,
          recorder: Optional[SpanRecorder]) -> Samples:
    warm_up(port)
    start = time.perf_counter()
    samples = Samples(start + seconds)
    threads = [
        threading.Thread(
            target=client_loop,
            args=(port, slots[t * KEYS_PER_THREAD:(t + 1) * KEYS_PER_THREAD],
                  samples, recorder, t),
        )
        for t in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.window = samples.last_done - start
    return samples


def prometheus_value(text: str, name: str) -> float:
    """A sample's value from Prometheus text; 0 when the series is absent."""
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return 0.0


def per_layer(samples: Samples, recorder: SpanRecorder, server_stats: dict,
              server_metrics: str, slots: List[Slot]) -> Dict[str, float]:
    replies = samples.replies
    cold = [r for r in replies if r.step == 0]
    warm = [r for r in replies if r.step > 0]
    counters = server_stats["counters"]
    by_status = {int(k): v for k, v in server_stats["responses_by_status"].items()}
    store = server_stats["store"]
    setup_hit = prometheus_value(server_metrics, "repro_setup_cache_hit")
    setup_all = setup_hit + sum(
        prometheus_value(server_metrics, f"repro_setup_cache_{kind}")
        for kind in ("miss", "stale")
    )
    metrics = {
        name: stats.p50([sum(r.stage_seconds.get(s, 0.0) for s in stages) for r in replies])
        for name, stages in PHASES.items()
    }
    metrics.update({
        "lcp.sweeps": stats.p50([r.iterations for r in replies]),
        "lcp.s_per_sweep": stats.p50(
            [r.stage_seconds.get("mmsim", 0.0) / max(1, r.iterations) for r in replies]
        ),
        "resilience.escalations": prometheus_value(
            server_metrics, "repro_resilience_escalated_shards"
        ),
        "tetris_fix.illegal_cells": stats.p50([r.num_illegal for r in replies]),
        "tetris_fix.useful_frac": (
            sum(r.num_illegal for r in replies) / sum(r.num_cells for r in replies)
        ),
        "legality.violations": prometheus_value(
            server_metrics, "repro_legalizer_audit_violations"
        ),
        "client.encode_s": stats.p50(recorder.durations("client.encode")),
        "client.decode_s": stats.p50(recorder.durations("client.decode")),
        "protocol.decode_s": stats.p50(recorder.durations("protocol.decode")),
        "server.runtime_s": stats.p50([r.runtime_seconds for r in replies]),
        "service.wait_s": stats.p50([r.wait for r in replies if r.traced]),
        "service.batch_fill": counters["service.requests"] / max(1, counters["service.batches"]),
        "service.rejected": sum(by_status.get(code, 0) for code in (429, 503, 504)),
        "store.hit_ratio": store["hits"] / max(1, store["hits"] + store["misses"]),
        "setup_cache.hit_ratio": setup_hit / setup_all if setup_all else 0.0,
        "eco.warm_sweeps_p50": stats.p50([r.iterations for r in warm]),
        "eco.cold_sweeps_p50": stats.p50([r.iterations for r in cold]),
        "eco.warm_accept_frac": sum(r.warm_start == "state" for r in warm) / len(warm),
        "eco.warm_p50_s": stats.p50([r.latency for r in warm]),
        "eco.cold_p50_s": stats.p50([r.latency for r in cold]),
        "trace.overhead_frac": (
            stats.p50(recorder.durations("flow"))
            / stats.p50([r.latency for r in replies if not r.traced]) - 1.0
        ),
    })
    # Leaf layers and problem sizes: the library trace replayed on the cold
    # inputs from this process, after the measured window.
    replay = library.Pool([slot.design for slot in slots])
    leaf, _ = library.run_traced(replay, 0.0, SpanRecorder(), [])
    for name in ("row_assign.busy_s", "subcells.split_s", "qp_builder.busy_s",
                 "tetris_fix.busy_s", "legality.busy_s", "sharding.shards",
                 "sharding.components", "qp.variables", "qp.constraints"):
        metrics[name] = leaf[name]
    return metrics


def run(root, env, seed, seconds, trace, setup_samples) -> Dict[str, object]:
    """One run of eco-service; see ``perfbench/run.py`` for the returned
    fields.  Set-up is sampled by spawning servers before and after the
    window; the last one before the window serves the load."""
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    setups: List[tuple] = []
    with open(os.path.join(root, ".perfbench", "serve.log"), "a") as log:
        def measure_setups(count: int) -> None:
            for _ in range(0 if trace else count):
                proc, _port, seconds_to_ready = spawn_server(root, env, log)
                setups.append((seconds_to_ready, speed.idle_kernel_seconds()))
                stop_server(proc)

        measure_setups(setup_samples // 2 - 1)
        proc, port, seconds_to_ready = spawn_server(root, env, log)
        setups.append((seconds_to_ready, speed.idle_kernel_seconds()))
        try:
            slots = make_slots(seed)
            fingerprints = [fp for slot in slots for fp in slot.fingerprints()]
            recorder = SpanRecorder() if trace else None
            samples = drive(port, slots, seconds, recorder)
            rss = library.peak_rss_mb(proc.pid)
            if trace:
                client = ServiceClient("127.0.0.1", port)
                server_stats = client.stats()
                server_metrics = client.metrics_text()
        finally:
            stop_server(proc)
        measure_setups(setup_samples - setup_samples // 2)

    failures = list(samples.failures)
    for slot in slots:
        failures.extend(slot.audit())
    out: Dict[str, object] = {
        "fingerprints": fingerprints,
        "fingerprint": combine(fingerprints),
        "attempted": samples.attempted,
        "failures": failures,
    }
    if trace:
        metrics = per_layer(samples, recorder, server_stats, server_metrics, slots)
        out.update(metrics={k: (v, None) for k, v in metrics.items()}, recorder=recorder)
        return out
    displacements = [d for slot in slots for d in slot.displacement.values()]
    out.update(speed.end_to_end(
        [r.latency for r in samples.replies], [r.kernel for r in samples.replies],
        samples.window, setups, statistics.fmean(displacements), len(displacements), rss,
    ))
    return out
