"""Library workloads (cold-solve, cold-tail): one closed-loop caller of
``MMSIMLegalizer().legalize`` cycling through a five-design pool.

Before every request the design's GP positions are restored with
``Design.restore_positions`` (1 ms, where ``Design.clone()`` costs a large
share of a request), so every repeat of a pool design starts from the same
state and must return bit-identical positions.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from perfbench import checks, speed, stats
from perfbench.inputs import SETUP_DESIGN, combine, fingerprint, make_pool
from perfbench.spans import SpanRecorder
from repro.benchgen import generate_benchmark
from repro.core.legalizer import MMSIMLegalizer
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.subcells import split_cells
from repro.core.tetris_fix import tetris_allocate
from repro.legality import check_legality

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

#: Per-layer timings of the traced run: metric -> span name.
SPAN_METRICS = {
    "legalizer.prepare_s": "legalizer.prepare",
    "legalizer.build_systems_s": "legalizer.build_systems",
    "legalizer.solve_s": "legalizer.solve",
    "legalizer.finish_s": "legalizer.finish",
    "row_assign.busy_s": "row_assign.busy",
    "subcells.split_s": "subcells.split",
    "qp_builder.busy_s": "qp_builder.busy",
    "tetris_fix.busy_s": "tetris_fix.busy",
    "legality.busy_s": "legality.busy",
}

#: Service-side layers a library workload does not go through.
NOT_EXERCISED = (
    "client.encode_s", "client.decode_s", "protocol.decode_s",
    "server.runtime_s", "service.wait_s", "service.batch_fill",
    "service.rejected", "store.hit_ratio", "setup_cache.hit_ratio",
    "eco.warm_sweeps_p50", "eco.cold_sweeps_p50", "eco.warm_accept_frac",
    "eco.warm_p50_s", "eco.cold_p50_s",
)


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def setup_seconds(root: str, env: Dict[str, str]) -> float:
    """One fresh process: start until the first request could start."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, PROBE, *map(str, SETUP_DESIGN)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
    return ready - start - float(line.split()[1])


class Pool:
    """The pool's designs plus what the checks need about each."""

    def __init__(self, designs) -> None:
        self.designs = designs
        self.snapshots = [d.snapshot_positions() for d in designs]
        self.tables = [checks.cell_table(d) for d in designs]
        self.gp = [
            (np.array([c.gp_x for c in d.cells]), np.array([c.gp_y for c in d.cells]))
            for d in designs
        ]
        #: design index -> (digest, x, y) of its first answer.
        self.first: Dict[int, tuple] = {}
        #: design index -> displacement of its answer, in sites.
        self.displacement: Dict[int, float] = {}
        #: design index -> requests answered with the first answer.
        self.answered: Dict[int, int] = {}

    def reset(self, k: int) -> None:
        self.designs[k].restore_positions(self.snapshots[k])

    def record(self, k: int) -> str:
        """Check the answer now on design *k*; returns a failure reason or ''."""
        design = self.designs[k]
        x, y, flipped = checks.design_positions(design)
        answer = checks.digest(x, y, flipped)
        first = self.first.get(k)
        if first is None:
            self.first[k] = (answer, x, y)
            gp_x, gp_y = self.gp[k]
            self.displacement[k] = checks.displacement_sites(
                design, gp_x, gp_y, x, y, self.tables[k].fixed
            )
        elif first[0] != answer:
            return f"positions differ from the first answer for {design.name}"
        self.answered[k] = self.answered.get(k, 0) + 1
        return ""

    def audit(self) -> List[str]:
        """Legality-check every distinct answer; every request that got an
        illegal one fails.  Returns one failure line per such request."""
        failures = []
        for k, (_, x, y) in sorted(self.first.items()):
            design = self.designs[k]
            problems = checks.legality_violations(design, self.tables[k], x, y)
            if problems:
                failures.extend(
                    f"{design.name} answer is illegal: {'; '.join(problems)}"
                    for _ in range(self.answered.get(k, 0))
                )
        return failures

    def mean_displacement(self) -> float:
        """Mean over the pool's inputs, each weighted once (repeats of an
        input return the same answer, so this is the mean over requests
        of whole cycles)."""
        return float(np.mean(list(self.displacement.values())))


def warm_up(legalizer) -> None:
    """Fill the measuring process's lazy state the way set-up does."""
    profile, scale, seed = SETUP_DESIGN
    legalizer.legalize(generate_benchmark(profile, scale=scale, seed=seed))


def run_untraced(pool: Pool, seconds: float, failures: List[str]) -> Dict[str, object]:
    """The closed loop, until *seconds* have passed and at least 100
    requests have completed; returns latencies, the calibration kernel
    time after each, attempts and window."""
    legalizer = MMSIMLegalizer()
    warm_up(legalizer)
    latencies: List[float] = []
    kernels: List[float] = []
    attempted = 0
    n = len(pool.designs)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or (
        len(latencies) < stats.MIN_TAIL_SAMPLES and not failures
    ):
        k = attempted % n
        attempted += 1
        pool.reset(k)
        t0 = time.perf_counter()
        try:
            legalizer.legalize(pool.designs[k])
        except Exception as exc:  # noqa: BLE001  (a failed request is data)
            failures.append(f"request {attempted} ({pool.designs[k].name}): "
                            f"{type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - t0
        reason = pool.record(k)
        if reason:
            failures.append(f"request {attempted}: {reason}")
            continue
        latencies.append(latency)
        kernels.append(speed.kernel_seconds())
    window = time.perf_counter() - start
    return {"latencies": latencies, "kernels": kernels, "attempted": attempted,
            "window": window}


class _Counts:
    """Work counts of the traced requests."""

    def __init__(self) -> None:
        self.per_request: Dict[str, List[float]] = {name: [] for name in (
            "lcp.sweeps", "lcp.s_per_sweep", "sharding.shards",
            "sharding.components", "qp.variables", "qp.constraints",
            "tetris_fix.illegal_cells",
        )}
        self.escalations = self.violations = self.illegal = self.scanned = 0

    def add(self, prepared, solved, escalated, result, solve_seconds) -> None:
        sharded = prepared.sharded
        for name, value in (
            ("lcp.sweeps", solved.iterations),
            ("lcp.s_per_sweep", solve_seconds / max(1, solved.iterations)),
            ("sharding.shards", sharded.num_shards if sharded else 1),
            ("sharding.components", sharded.num_components if sharded else 1),
            ("qp.variables", prepared.num_variables),
            ("qp.constraints", prepared.num_constraints),
            ("tetris_fix.illegal_cells", result.tetris.num_illegal),
        ):
            self.per_request[name].append(value)
        self.escalations += len(escalated)
        self.violations += len(result.legality.violations)
        self.illegal += result.tetris.num_illegal
        self.scanned += result.tetris.num_cells


def _traced_request(legalizer, pool, k, recorder, rid, counts, failures) -> None:
    """The four phase methods in the order ``legalize()`` chains them, then
    standalone leaf calls on the same input."""
    design = pool.designs[k]
    cfg = legalizer.config
    with recorder.span("request", rid) as root:
        with recorder.span("flow", rid, root) as flow:
            with recorder.span("legalizer.prepare", rid, flow):
                prepared = legalizer.prepare(design)
            with recorder.span("legalizer.build_systems", rid, flow):
                legalizer.build_systems(prepared)
            with recorder.span("legalizer.solve", rid, flow) as solve:
                solved, escalated = legalizer.solve_prepared(prepared)
            with recorder.span("legalizer.finish", rid, flow):
                result = legalizer.finish(prepared, solved, escalated)
        reason = pool.record(k)
        if reason:
            failures.append(f"request {rid} (traced): {reason}")
            return
        counts.add(prepared, solved, escalated, result, recorder.seconds(solve))

        # On the legal answer Tetris is idempotent: no cell may move.
        before = checks.digest(*checks.design_positions(design))
        with recorder.span("tetris_fix.busy", rid, root):
            tetris_allocate(design)
        if checks.digest(*checks.design_positions(design)) != before:
            failures.append(f"request {rid}: tetris_allocate moved a cell "
                            f"of the legal answer for {design.name}")
        with recorder.span("legality.busy", rid, root):
            check_legality(design)
        # The front-half leaves run on the GP state.
        pool.reset(k)
        with recorder.span("row_assign.busy", rid, root):
            assignment = assign_rows(design)
        with recorder.span("subcells.split", rid, root):
            model = split_cells(design, assignment)
        with recorder.span("qp_builder.busy", rid, root):
            build_legalization_qp(
                design, model, lam=cfg.lam,
                enforce_right_boundary=cfg.enforce_right_boundary,
            )


def run_traced(
    pool: Pool, seconds: float, recorder: SpanRecorder, failures: List[str]
) -> tuple:
    """Alternate whole cycles, at least one of each: untraced ``legalize()``
    calls, then traced requests on the same inputs (whose answers must
    match).  Returns ``(per-layer metrics, requests attempted)``."""
    legalizer = MMSIMLegalizer()
    warm_up(legalizer)
    untraced: List[float] = []
    counts = _Counts()
    request = cycle = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or cycle < 2:
        traced = cycle % 2 == 1
        cycle += 1
        for k, design in enumerate(pool.designs):
            request += 1
            pool.reset(k)
            try:
                if traced:
                    _traced_request(legalizer, pool, k, recorder, f"r{request}",
                                    counts, failures)
                    continue
                t0 = time.perf_counter()
                legalizer.legalize(design)
                untraced.append(time.perf_counter() - t0)
                reason = pool.record(k)
                if reason:
                    failures.append(f"request r{request}: {reason}")
            except Exception as exc:  # noqa: BLE001  (a failed request is data)
                failures.append(f"request r{request} ({design.name}): "
                                f"{type(exc).__name__}: {exc}")

    metrics = {
        metric: stats.p50(recorder.durations(span))
        for metric, span in SPAN_METRICS.items()
    }
    metrics.update(
        {name: stats.p50(values) for name, values in counts.per_request.items()}
    )
    metrics.update({
        "resilience.escalations": counts.escalations,
        "tetris_fix.useful_frac": counts.illegal / counts.scanned if counts.scanned else 0.0,
        "legality.violations": counts.violations,
        "trace.overhead_frac": (
            stats.p50(recorder.durations("flow")) / stats.p50(untraced) - 1.0
        ),
    })
    return metrics, request


def run(root, env, workload, seed, seconds, trace, setup_samples) -> Dict[str, object]:
    """One run of a library workload; see ``perfbench/run.py`` for the
    returned fields."""
    def measure_setups() -> None:
        for _ in range(0 if trace else setup_samples // 2):
            setups.append((setup_seconds(root, env), speed.idle_kernel_seconds()))

    setups: List[tuple] = []
    measure_setups()
    designs = make_pool(workload, seed)
    fingerprints = [fingerprint(d) for d in designs]
    pool = Pool(designs)
    failures: List[str] = []
    out: Dict[str, object] = {
        "fingerprints": fingerprints, "fingerprint": combine(fingerprints),
    }
    if trace:
        recorder = SpanRecorder()
        per_layer, attempted = run_traced(pool, seconds, recorder, failures)
        per_layer.update(dict.fromkeys(NOT_EXERCISED, 0.0))
        out.update(metrics={k: (v, None) for k, v in per_layer.items()}, recorder=recorder)
    else:
        loop = run_untraced(pool, seconds, failures)
        attempted = loop["attempted"]
        rss = peak_rss_mb(os.getpid())
    failures.extend(pool.audit())
    measure_setups()
    if not trace:
        out.update(speed.end_to_end(
            loop["latencies"], loop["kernels"], loop["window"], setups,
            pool.mean_displacement(), len(pool.displacement), rss,
        ))
    out.update(attempted=attempted, failures=failures)
    return out
