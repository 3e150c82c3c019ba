"""Smoke tests for the programmatic experiment regenerators and the
convergence visualization."""

import pytest

from repro.analysis import run_sec53, run_table1, run_table2
from repro.viz import render_convergence_svg


class TestExperimentRegenerators:
    """Tiny cell caps keep these smoke tests quick; the real runs live in
    benchmarks/."""

    def test_run_table1_structure(self):
        report = run_table1(cell_cap=50, seed=1)
        assert report.name == "table1"
        assert len(report.rows) == 21  # 20 benchmarks + average row
        assert report.rows[-1][0] == "Average"
        assert "Table 1" in report.text
        # Paper reference columns present on every row.
        assert report.rows[0][6] is not None

    def test_run_sec53_structure(self):
        report = run_sec53(cell_cap=40, seed=1)
        assert report.name == "sec53"
        assert len(report.rows) == 20
        assert 0 <= report.extra["num_equal"] <= 20
        assert "optimality" in report.text

    def test_run_table2_structure(self):
        report = run_table2(cell_cap=40, seed=1)
        assert report.name == "table2"
        names = [row[0] for row in report.rows]
        assert names == ["tetris", "chow", "chow_imp", "wang", "mmsim"]
        norm = report.extra["normalized"]
        assert norm["mmsim"]["disp"] == pytest.approx(1.0)
        assert len(report.extra["records"]) == 100  # 20 benchmarks x 5


class TestConvergenceSVG:
    def test_structure(self):
        history = [10.0 * 0.9 ** k for k in range(200)]
        svg = render_convergence_svg(history, title="demo")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "demo" in svg
        assert "polyline" in svg
        assert "1e" in svg  # decade labels

    def test_handles_empty_and_zero(self):
        assert "<svg" in render_convergence_svg([])
        assert "<svg" in render_convergence_svg([0.0, 0.0])

    def test_from_real_run(self):
        from repro.benchgen import make_benchmark
        from repro.core import LegalizerConfig, MMSIMLegalizer

        from repro import telemetry

        design = make_benchmark("fft_a", scale=0.005, seed=2, with_nets=False)
        config = LegalizerConfig(tol=1e-6, residual_tol=1e-5)
        with telemetry.session() as tel:
            MMSIMLegalizer(config).legalize(design)
        steps = [
            e["step"]
            for e in tel.solver_events.events(solver="mmsim", kind="iteration")
        ]
        assert steps
        svg = render_convergence_svg(steps)
        assert svg.count("polyline") == 1
