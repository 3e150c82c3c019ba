"""Tests for the repro.telemetry subsystem: span nesting and exception
safety, metrics aggregation, bounded/streaming solver events, JSONL
round-trip, Chrome-trace schema validity, no-op-overhead behaviour of the
disabled path, baseline stage tracing, and a full-legalizer integration
run."""

from __future__ import annotations

import io
import json
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro import telemetry
from repro.baselines import TetrisLegalizer, WangLegalizer
from repro.benchgen import make_benchmark
from repro.core.legalizer import legalize
from repro.lcp import LCP, MMSIMOptions, mmsim_solve, psor_solve, PSOROptions
from repro.lcp.lemke import LemkeOptions, lemke_solve
from repro.lcp.splittings import ExactSplitting
from repro.telemetry import (
    EventSink,
    MetricsRegistry,
    NULL_TRACER,
    TelemetrySession,
    Tracer,
)


def small_lcp(n: int = 12, seed: int = 3) -> LCP:
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    return LCP(A=sp.csr_matrix(A), q=rng.standard_normal(n))


# ----------------------------------------------------------------------
# Tracer / spans
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("root", design="d") as root:
            with tracer.span("child_a") as a:
                with tracer.span("leaf"):
                    pass
            with tracer.span("child_b"):
                pass
        assert tracer.roots == [root]
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in a.children] == ["leaf"]
        assert a.parent_id == root.span_id
        assert root.parent_id is None
        assert root.attributes == {"design": "d"}
        # every span is closed, durations nest sanely
        for span in tracer.walk():
            assert span.end is not None
            assert span.duration >= 0.0
        assert root.duration >= a.duration

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        outer = tracer.roots[0]
        inner = outer.children[0]
        for span in (outer, inner):
            assert span.status == "error"
            assert "RuntimeError: boom" == span.error
            assert span.end is not None
        # the stack fully unwound: a new span is a fresh root
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "after"]

    def test_stage_seconds_aggregates_by_name(self):
        tracer = Tracer()
        with tracer.span("a"):
            time.sleep(0.002)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        totals = tracer.stage_seconds()
        assert set(totals) == {"a", "b"}
        assert totals["a"] >= 0.002

    def test_child_seconds_and_find(self):
        tracer = Tracer()
        with tracer.span("flow") as root:
            with tracer.span("x"):
                pass
            with tracer.span("x"):
                pass
            with tracer.span("y"):
                pass
        assert set(root.child_seconds()) == {"x", "y"}
        assert len(tracer.find("x")) == 2
        assert len(root.find("flow")) == 1

    def test_set_attribute_mid_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set_attribute("iterations", 42)
            span.set_attributes(converged=True)
        assert span.attributes == {"iterations": 42, "converged": True}

    def test_null_tracer_is_inert_and_allocation_free(self):
        cm1 = NULL_TRACER.span("anything", x=1)
        cm2 = NULL_TRACER.span("else")
        assert cm1 is cm2  # shared context manager: no per-call allocation
        with cm1 as span:
            span.set_attribute("k", "v")  # no-op, no error
        assert NULL_TRACER.stage_seconds() == {}
        assert list(NULL_TRACER.walk()) == []
        assert NULL_TRACER.current_span is None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(7.5)
        for v in (1.0, 3.0, 2.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 5
        assert snap["g"]["value"] == 7.5
        assert snap["h"]["count"] == 3
        assert snap["h"]["sum"] == 6.0
        assert snap["h"]["min"] == 1.0
        assert snap["h"]["max"] == 3.0
        assert snap["h"]["mean"] == pytest.approx(2.0)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_null_registry_inert(self):
        null = telemetry.NULL_METRICS
        null.counter("x").inc()
        null.gauge("x").set(1)
        null.histogram("x").observe(1)
        assert null.snapshot() == {}
        assert len(null) == 0


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
class TestEventSink:
    def test_bounded_drops_oldest(self):
        sink = EventSink(limit=3)
        for k in range(5):
            sink.emit("mmsim", "iteration", iteration=k)
        assert len(sink) == 3
        assert sink.dropped == 2
        assert sink.total_emitted == 5
        assert [e["iteration"] for e in sink.events()] == [2, 3, 4]

    def test_streaming_writes_every_event(self):
        stream = io.StringIO()
        sink = EventSink(limit=2, stream=stream)
        for k in range(4):
            sink.emit("psor", "iteration", iteration=k)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        # the stream saw all 4 even though memory kept only 2
        assert [l["iteration"] for l in lines] == [0, 1, 2, 3]
        assert len(sink) == 2

    def test_span_id_stamped_from_tracer(self):
        tracer = Tracer()
        sink = EventSink(tracer=tracer)
        with tracer.span("solve") as span:
            sink.emit("mmsim", "iteration", iteration=1)
        sink.emit("mmsim", "done", iterations=1)
        events = sink.events()
        assert events[0]["span_id"] == span.span_id
        assert "span_id" not in events[1]

    def test_filtering(self):
        sink = EventSink()
        sink.emit("mmsim", "iteration", iteration=1)
        sink.emit("psor", "iteration", iteration=1)
        sink.emit("mmsim", "done", iterations=1)
        assert len(sink.events(solver="mmsim")) == 2
        assert len(sink.events(kind="iteration")) == 2
        assert len(sink.events(solver="mmsim", kind="done")) == 1

    def test_solver_iteration_counts_prefers_done(self):
        sink = EventSink(limit=2)
        for k in range(1, 8):
            sink.emit("mmsim", "iteration", iteration=k)
        sink.emit("mmsim", "done", iterations=7)
        counts = telemetry.solver_iteration_counts(sink.events())
        assert counts["mmsim"] == 7


# ----------------------------------------------------------------------
# Solver event emission
# ----------------------------------------------------------------------
class TestSolverTelemetry:
    def test_mmsim_emits_per_iteration(self):
        lcp = small_lcp()
        sink = EventSink()
        res = mmsim_solve(
            lcp, ExactSplitting(lcp.A), MMSIMOptions(telemetry=sink)
        )
        iters = sink.events(solver="mmsim", kind="iteration")
        assert len(iters) == res.iterations
        assert [e["iteration"] for e in iters] == list(
            range(1, res.iterations + 1)
        )
        assert all("step" in e and "omega" in e for e in iters)
        done = sink.events(solver="mmsim", kind="done")
        assert len(done) == 1
        assert done[0]["converged"] == res.converged
        assert done[0]["iterations"] == res.iterations

    def test_mmsim_disabled_path_identical_result(self):
        lcp = small_lcp(seed=5)
        res_off = mmsim_solve(lcp, ExactSplitting(lcp.A), MMSIMOptions())
        sink = EventSink()
        res_on = mmsim_solve(
            lcp, ExactSplitting(lcp.A), MMSIMOptions(telemetry=sink)
        )
        assert res_off.iterations == res_on.iterations
        np.testing.assert_array_equal(res_off.z, res_on.z)

    def test_psor_emits(self):
        lcp = small_lcp(seed=9)
        sink = EventSink()
        res = psor_solve(lcp, PSOROptions(telemetry=sink))
        assert len(sink.events(solver="psor", kind="iteration")) == res.iterations
        assert sink.events(solver="psor", kind="done")[0]["converged"]

    def test_lemke_emits_pivots(self):
        lcp = small_lcp(seed=13)
        sink = EventSink()
        res = lemke_solve(lcp, LemkeOptions(telemetry=sink))
        assert res.converged
        pivots = sink.events(solver="lemke", kind="pivot")
        assert len(pivots) == res.iterations
        assert sink.events(solver="lemke", kind="done")[0]["converged"]


# ----------------------------------------------------------------------
# Session plumbing
# ----------------------------------------------------------------------
class TestSession:
    def test_default_is_disabled(self):
        tel = telemetry.current_session()
        assert not tel.enabled
        assert tel.solver_events is None
        assert tel.tracer is NULL_TRACER

    def test_session_installs_and_restores(self):
        before = telemetry.current_session()
        with telemetry.session() as tel:
            assert telemetry.current_session() is tel
            assert tel.enabled
            assert tel.solver_events is tel.events
        assert telemetry.current_session() is before

    def test_disabled_session_uses_nulls(self):
        tel = TelemetrySession(enabled=False)
        assert tel.solver_events is None
        assert tel.metrics.snapshot() == {}

    def test_active_tracer_private_when_disabled(self):
        t1 = telemetry.active_tracer()
        t2 = telemetry.active_tracer()
        assert t1 is not t2
        with telemetry.session() as tel:
            assert telemetry.active_tracer() is tel.tracer


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_session() -> TelemetrySession:
    tel = TelemetrySession()
    with tel.tracer.span("legalize", design="d") as root:
        with tel.tracer.span("mmsim"):
            tel.events.emit("mmsim", "iteration", iteration=1, step=0.5,
                            omega=1.0, residual=None)
            tel.events.emit("mmsim", "done", iterations=1, converged=True,
                            residual=1e-9)
    tel.metrics.counter("mmsim.iterations").inc(1)
    tel.metrics.gauge("qp.constraints").set(10)
    tel.metrics.histogram("legalizer.displacement_sites").observe(3.5)
    assert root.end is not None
    return tel


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tel = _sample_session()
        path = str(tmp_path / "trace.jsonl")
        telemetry.write_jsonl(tel, path)
        with open(path) as fh:
            for line in fh:
                json.loads(line)  # every line is standalone JSON
        data = telemetry.read_jsonl(path)
        assert data.meta["schema"] == telemetry.SCHEMA
        assert data.span_names() == ["legalize", "mmsim"]
        by_id = data.spans_by_id()
        child = next(s for s in data.spans if s["name"] == "mmsim")
        assert by_id[child["parent_id"]]["name"] == "legalize"
        assert len(data.events) == 2
        assert {m["name"] for m in data.metrics} == {
            "mmsim.iterations", "qp.constraints",
            "legalizer.displacement_sites",
        }
        # event→span linkage survives the round trip
        assert data.events[0]["span_id"] == child["id"]

    def test_chrome_trace_schema(self, tmp_path):
        tel = _sample_session()
        path = str(tmp_path / "trace.json")
        telemetry.write_chrome_trace(tel, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert isinstance(doc["traceEvents"], list)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(spans) == 2
        assert len(instants) == 2
        for ev in doc["traceEvents"]:
            assert isinstance(ev["name"], str)
            assert isinstance(ev["ts"], (int, float))
            assert "pid" in ev and "tid" in ev
        for ev in spans:
            assert ev["dur"] >= 0.0
        assert {e["name"] for e in instants} == {"mmsim.iteration", "mmsim.done"}

    def test_summarize_mentions_stages_solvers_metrics(self):
        tel = _sample_session()
        text = telemetry.summarize(tel)
        for needle in ("legalize", "mmsim", "iterations=1",
                       "qp.constraints", "stages", "solvers", "metrics"):
            assert needle in text

    def test_aggregate_stage_seconds(self):
        tel = _sample_session()
        agg = telemetry.aggregate_stage_seconds(tel)
        assert agg["legalize"]["count"] == 1
        assert agg["legalize"]["total"] >= agg["mmsim"]["total"]


# ----------------------------------------------------------------------
# Baselines trace their stages through the same tracer
# ----------------------------------------------------------------------
class TestBaselineTracing:
    def test_stages_land_in_ambient_session(self):
        design = make_benchmark("fft_2", scale=0.008, seed=1, with_nets=False)
        with telemetry.session() as tel:
            result = TetrisLegalizer().legalize(design)
        roots = tel.tracer.roots
        assert [r.name for r in roots] == ["legalize"]
        assert roots[0].attributes["algorithm"] == "tetris"
        assert [c.name for c in roots[0].children] == ["tetris"]
        assert set(result.stage_seconds) == {"tetris"}
        assert result.runtime == pytest.approx(roots[0].children[0].duration)

    def test_stage_seconds_without_session(self):
        design = make_benchmark("fft_2", scale=0.008, seed=1, with_nets=False)
        result = WangLegalizer().legalize(design)
        assert set(result.stage_seconds) >= {"wang", "refine"}
        assert result.runtime == pytest.approx(
            sum(result.stage_seconds.values())
        )


# ----------------------------------------------------------------------
# Integration: the full legalization flow
# ----------------------------------------------------------------------
class TestLegalizerIntegration:
    def test_full_run_produces_span_tree_events_and_metrics(self):
        design = make_benchmark("fft_2", scale=0.008, seed=1, with_nets=False)
        with telemetry.session() as tel:
            result = legalize(design)
        assert result.converged

        roots = tel.tracer.roots
        assert [r.name for r in roots] == ["legalize"]
        root = roots[0]
        stage_names = [c.name for c in root.children]
        for expected in ("row_assign", "split", "build_qp", "splitting",
                         "mmsim", "restore", "tetris", "metrics"):
            assert expected in stage_names, stage_names
        # splitting factorization sub-spans nest under the splitting stage
        split_stage = next(c for c in root.children if c.name == "splitting")
        assert {s.name for s in split_stage.children} >= {
            "splitting.woodbury", "splitting.schur", "splitting.factorize",
        }
        # mmsim span carries solver attributes and the result agrees
        mmsim_span = next(c for c in root.children if c.name == "mmsim")
        assert mmsim_span.attributes["iterations"] == result.iterations

        # per-iteration convergence events, linked to the mmsim span
        iters = tel.events.events(solver="mmsim", kind="iteration")
        assert len(iters) == result.iterations > 0
        assert all(e["span_id"] == mmsim_span.span_id for e in iters)

        snap = tel.metrics.snapshot()
        assert snap["mmsim.iterations"]["value"] == result.iterations > 0
        assert snap["qp.constraints"]["value"] == result.num_constraints
        assert snap["legalizer.cells_moved"]["value"] > 0

        # stage_seconds on the result matches the span tree
        assert set(result.stage_seconds) == set(root.child_seconds())

    def test_disabled_run_still_reports_stage_seconds(self):
        design = make_benchmark("fft_2", scale=0.008, seed=2, with_nets=False)
        result = legalize(design)
        assert result.converged
        for stage in ("row_assign", "mmsim", "tetris"):
            assert stage in result.stage_seconds
        # and nothing leaked into the (disabled) ambient session
        assert telemetry.current_session().enabled is False

    def test_trace_summarize_on_real_run(self, tmp_path):
        design = make_benchmark("fft_2", scale=0.008, seed=3, with_nets=False)
        with telemetry.session() as tel:
            legalize(design)
        path = str(tmp_path / "run.jsonl")
        telemetry.write_jsonl(tel, path)
        text = telemetry.summarize(telemetry.read_jsonl(path))
        assert "legalize" in text and "mmsim" in text


# ----------------------------------------------------------------------
# No-op overhead microtest (lenient; the strict <2% gate lives in
# benchmarks/bench_telemetry_overhead.py)
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_solve_not_slower_than_reference(self):
        lcp = small_lcp(n=60, seed=21)
        splitting = ExactSplitting(lcp.A)
        opts = MMSIMOptions(tol=0.0, residual_tol=None, max_iterations=150)

        sink = EventSink(limit=200)
        opts_on = MMSIMOptions(tol=0.0, residual_tol=None,
                               max_iterations=150, telemetry=sink)
        mmsim_solve(lcp, splitting, opts)  # warm-up
        # Alternate the two sides rep by rep, so host drift during the
        # test lands on both minimums instead of on one side's block.
        disabled = enabled = float("inf")
        for _ in range(5):
            disabled = min(
                disabled, _timed(lambda: mmsim_solve(lcp, splitting, opts))
            )
            enabled = min(
                enabled, _timed(lambda: mmsim_solve(lcp, splitting, opts_on))
            )
        # Very generous bound: the disabled path must not cost more than
        # 1.5x the enabled path (they run identical numeric work; the
        # enabled path additionally builds one event dict per sweep).
        assert disabled < 1.5 * enabled


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
