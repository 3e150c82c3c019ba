"""End-to-end tests of the MMSIM legalization flow (paper Figure 4).

The central assertions:

* the result is *legal* (independent checker);
* with the right boundary slack, the MMSIM reaches the true QP optimum
  (certified against the dense active-set oracle — Theorem 2);
* loosening the stopping tolerance does not change the final snapped
  placement (the design decision behind the default tolerance);
* GP cell ordering is preserved within rows (Figure 5's observation).
"""

import numpy as np
import pytest

from repro.benchgen import make_benchmark
from repro.core import LegalizerConfig, MMSIMLegalizer, legalize
from repro.core.row_assign import assign_rows
from repro.core.subcells import split_cells
from repro.core.qp_builder import build_legalization_qp
from repro.lcp import mmsim_solve
from repro.legality import check_legality
from repro.qp import solve_reference


class TestEndToEnd:
    @pytest.mark.parametrize("bench,seed", [("fft_a", 0), ("des_perf_b", 1)])
    def test_result_is_legal(self, bench, seed):
        design = make_benchmark(bench, scale=0.01, seed=seed)
        result = legalize(design)
        assert result.converged
        report = check_legality(design)
        assert report.is_legal, report.summary()
        assert result.tetris.num_unplaced == 0

    def test_small_mixed_design(self, small_mixed_design):
        result = legalize(small_mixed_design)
        assert result.converged
        assert check_legality(small_mixed_design).is_legal
        assert result.num_cells == 30
        # Subcell mismatch bounded by the λ penalty (paper Section 4).
        assert result.max_subcell_mismatch < 0.5

    def test_summary_smoke(self, small_mixed_design):
        result = legalize(small_mixed_design)
        text = result.summary()
        assert "small_mixed" in text
        assert "illegal" in text

    def test_stage_timers_populated(self, small_mixed_design):
        result = legalize(small_mixed_design)
        for stage in ("row_assign", "split", "build_qp", "mmsim", "tetris"):
            assert stage in result.stage_seconds
        assert result.runtime > 0


class TestOptimality:
    """Theorem 2: the MMSIM solves the relaxed QP to optimality."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_active_set_oracle(self, seed):
        design = make_benchmark("fft_a", scale=0.004, seed=seed, with_nets=False)
        # Build the exact QP the legalizer solves.
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        oracle = solve_reference(lq.qp, method="active_set")

        design2 = make_benchmark("fft_a", scale=0.004, seed=seed, with_nets=False)
        result = MMSIMLegalizer(
            LegalizerConfig(tol=1e-9, residual_tol=1e-7)
        ).legalize(design2)
        assert result.converged
        assert result.qp_objective == pytest.approx(oracle.objective, abs=1e-4)

    def test_theorem2_holds_on_every_shard(self, small_mixed_design):
        """The paper's (β*, θ*) = (0.5, 0.5) sit inside every shard's
        Theorem 2 window (μ_max of a block-diagonal Γ is the max over
        blocks, so each shard must)."""
        legalizer = MMSIMLegalizer()
        prepared = legalizer.prepare(small_mixed_design)
        legalizer.build_systems(prepared)
        assert all(
            shard.splitting.parameters_satisfy_theorem2()
            for shard in prepared.sharded.shards
        )


class TestToleranceInsensitivity:
    def test_tolerance_insensitivity(self):
        """Snapped placements are identical at 1e-3 and 1e-7 tolerance."""
        positions = {}
        for tol in (1e-3, 1e-7):
            design = make_benchmark("fft_2", scale=0.01, seed=4, with_nets=False)
            MMSIMLegalizer(LegalizerConfig(tol=tol, residual_tol=tol * 10)).legalize(
                design
            )
            positions[tol] = [(c.x, c.y) for c in design.cells]
        assert positions[1e-3] == positions[1e-7]


class TestOrderPreservation:
    def test_gp_order_preserved_in_rows(self):
        """Cells sharing a row keep their GP x order (the paper's Figure 5
        observation, and the premise of the whole formulation)."""
        design = make_benchmark("fft_2", scale=0.01, seed=7, with_nets=False)
        legalize(design)
        rows = {}
        for cell in design.movable_cells:
            rows.setdefault(cell.row_index, []).append(cell)
        violations = 0
        for cells in rows.values():
            cells.sort(key=lambda c: c.x)
            for left, right in zip(cells, cells[1:]):
                # Only cells that the MMSIM constrained against each other
                # (same bottom row) are strictly ordered; Tetris-fixed
                # illegal cells may break order, hence a tolerance of a few.
                if left.gp_x > right.gp_x + 1e-9:
                    violations += 1
        assert violations <= max(2, 0.01 * len(design.movable_cells))


class TestWarmStart:
    def test_warm_start_not_slower(self):
        """The GP seed ``prepared.s0`` reaches the same optimum as a start
        from zero, in fewer sweeps."""
        design = make_benchmark("fft_a", scale=0.01, seed=5, with_nets=False)
        legalizer = MMSIMLegalizer(LegalizerConfig(shard=False))
        prepared = legalizer.prepare(design)
        legalizer.build_systems(prepared)
        (shard,) = prepared.sharded.shards
        opts = legalizer.solver_options()
        warm = mmsim_solve(shard.lcp, shard.splitting, opts, s0=prepared.s0)
        cold = mmsim_solve(shard.lcp, shard.splitting, opts)
        assert warm.converged and cold.converged
        n = prepared.num_variables
        np.testing.assert_allclose(warm.z[:n], cold.z[:n], atol=0.01)
        assert warm.iterations < cold.iterations


class TestYDisplacementMinimality:
    def test_y_matches_row_assignment(self):
        """Total y displacement equals the nearest-correct-row lower bound
        for cells the Tetris stage did not move (usually all of them)."""
        design = make_benchmark("fft_a", scale=0.01, seed=11, with_nets=False)
        result = legalize(design)
        if result.tetris.num_illegal == 0:
            measured_y = sum(abs(c.y - c.gp_y) for c in design.movable_cells)
            assert measured_y == pytest.approx(result.y_displacement)


class TestDeprecatedRecordHistory:
    def test_default_config_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            LegalizerConfig()


class TestMandatoryAudit:
    def test_audit_attached_to_result(self, small_mixed_design):
        result = MMSIMLegalizer().legalize(small_mixed_design)
        assert result.legality is not None
        assert result.audit_clean
        assert "audit=clean" in result.summary()
