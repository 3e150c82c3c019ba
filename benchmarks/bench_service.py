"""Service-mode benchmark: warm-state reuse and request batching.

Boots a real ``LegalizationServer`` on an ephemeral port (the same
asyncio + thread-pool stack ``repro serve`` runs) and measures the two
effects the service exists to provide:

* **Warm-state reuse** — for each seed: a cold submission, an ECO-style
  resubmission (a few cells nudged by ``+0.05`` in gp_x), and an
  identical resubmission, all under one cache key.  Records end-to-end
  request latency and MMSIM sweep counts per leg.  The gate: every warm
  resubmission must be a cache ``hit`` that converges in at most
  ``--warm-budget`` sweeps (default 5 — the ISSUE acceptance bound),
  and every response must be audit-clean.

* **Cross-request batching** — ``BATCH_REQUESTS`` designs submitted
  at once from concurrent client threads, more than the server has
  workers.  A free worker takes every job queued behind the busy ones,
  so they must ride strictly fewer stacked solves than requests
  (``batches < requests``); per-request latency is recorded for
  comparison against the serial leg.

Both legs run on one server with the default ``ServiceConfig``.

Results land in ``BENCH_service.json`` at the repo root:

```jsonc
{
  "benchmark": "fft_2", "scale": 0.01, "seeds": [...],
  "warm_state": [{"seed": 7, "num_cells": ...,
                  "cold":  {"latency_s": ..., "iterations": ...},
                  "warm_perturbed": {...}, "warm_identical": {...},
                  "speedup_perturbed": ..., "speedup_identical": ...}],
  "batching": {"requests": 8, "batches": ..., "latency_s": [...]},
  "service_stats": { /* GET /stats snapshot after both legs */ }
}
```

Latency numbers are informational (CI runners are noisy); the sweep
counts and cache decisions are the gated part.

Run:  PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import threading
import time
from contextlib import contextmanager, suppress
from typing import Dict, List

from repro.benchgen.generator import generate_benchmark
from repro.service import LegalizationServer, ServiceClient, ServiceConfig

BENCH = "fft_2"
SCALE = 0.01
SEEDS = [7, 9, 21]
PERTURB_CELLS = 5
PERTURB_DX = 0.05
#: Concurrent requests in the batching leg: four per default worker, so
#: most of them queue behind busy workers and stack.
BATCH_REQUESTS = 8


@contextmanager
def running_server():
    server = LegalizationServer(ServiceConfig(port=0))
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            server.serve(on_ready=lambda s: ready.set())
        ),
        daemon=True,
    )
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("server did not start")
    client = ServiceClient("127.0.0.1", server.port)
    client.wait_ready()
    try:
        yield server, client
    finally:
        if thread.is_alive():
            with suppress(Exception):
                client.shutdown()
            thread.join(60)


def make_design(seed: int):
    return generate_benchmark(BENCH, scale=SCALE, seed=seed)


def perturb(design) -> None:
    for cell in list(design.movable_cells)[:PERTURB_CELLS]:
        cell.gp_x += PERTURB_DX


def timed_submit(client: ServiceClient, design, key: str) -> Dict:
    start = time.perf_counter()
    response = client.legalize(design, key=key)
    latency = time.perf_counter() - start
    if not (response.ok and response.audit_clean):
        raise SystemExit(
            f"FAIL: key={key} ok={response.ok} "
            f"audit_clean={response.audit_clean} error={response.error}"
        )
    return {
        "latency_s": round(latency, 6),
        "iterations": response.iterations,
        "cache": response.cache,
        "warm_start": response.warm_start,
        "converged": response.converged,
        "num_illegal": response.num_illegal,
    }


def bench_warm_state(client: ServiceClient, warm_budget: int) -> List[Dict]:
    rows = []
    for seed in SEEDS:
        key = f"bench-{seed}"
        cold = timed_submit(client, make_design(seed), key)
        nudged = make_design(seed)
        perturb(nudged)
        warm = timed_submit(client, nudged, key)
        identical = timed_submit(client, nudged, key)

        for leg, record in (("perturbed", warm), ("identical", identical)):
            if record["cache"] != "hit":
                raise SystemExit(
                    f"FAIL: seed={seed} {leg} resubmit was "
                    f"{record['cache']!r}, expected a warm hit"
                )
            if record["iterations"] > warm_budget:
                raise SystemExit(
                    f"FAIL: seed={seed} {leg} warm resubmit took "
                    f"{record['iterations']} sweeps (budget {warm_budget})"
                )
        rows.append(
            {
                "seed": seed,
                "num_cells": len(make_design(seed).cells),
                "cold": cold,
                "warm_perturbed": warm,
                "warm_identical": identical,
                "speedup_perturbed": round(
                    cold["latency_s"] / max(warm["latency_s"], 1e-9), 2
                ),
                "speedup_identical": round(
                    cold["latency_s"] / max(identical["latency_s"], 1e-9), 2
                ),
            }
        )
        print(
            f"  seed={seed}: cold {cold['iterations']} sweeps "
            f"{cold['latency_s'] * 1e3:.1f} ms | perturbed "
            f"{warm['iterations']} sweeps {warm['latency_s'] * 1e3:.1f} ms"
            f" | identical {identical['iterations']} sweeps "
            f"{identical['latency_s'] * 1e3:.1f} ms"
        )
    return rows


def bench_batching(client: ServiceClient) -> Dict:
    before = client.stats()["counters"].get("service.batches", 0)
    designs = [
        make_design(SEEDS[i % len(SEEDS)]) for i in range(BATCH_REQUESTS)
    ]
    latencies = [None] * len(designs)

    def submit(i: int) -> None:
        start = time.perf_counter()
        response = client.legalize(designs[i], key=f"batch-{i}", warm=False)
        latencies[i] = round(time.perf_counter() - start, 6)
        assert response.ok and response.audit_clean

    threads = [
        threading.Thread(target=submit, args=(i,))
        for i in range(len(designs))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    batches = client.stats()["counters"]["service.batches"] - before
    if batches >= len(designs):
        raise SystemExit(
            f"FAIL: {len(designs)} concurrent requests used {batches} "
            f"batches — no cross-request stacking happened"
        )
    print(
        f"  {len(designs)} concurrent requests -> {batches} stacked "
        f"solve(s), latencies "
        f"{', '.join(f'{lat * 1e3:.1f} ms' for lat in latencies)}"
    )
    return {
        "requests": len(designs),
        "batches": batches,
        "latency_s": latencies,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_service.json",
        ),
    )
    parser.add_argument(
        "--warm-budget",
        type=int,
        default=5,
        help="max MMSIM sweeps a warm resubmit may take (gate)",
    )
    args = parser.parse_args(argv)

    payload = {
        "benchmark": BENCH,
        "scale": SCALE,
        "seeds": SEEDS,
        "perturbation": {"cells": PERTURB_CELLS, "dx": PERTURB_DX},
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    with running_server() as (_, client):
        print("warm-state reuse:")
        payload["warm_state"] = bench_warm_state(client, args.warm_budget)
        print("cross-request batching:")
        payload["batching"] = bench_batching(client)
        payload["service_stats"] = client.stats()

    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
