"""Tests for repro.metrics."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.metrics import (
    DisplacementStats,
    density_map,
    displacement_stats,
    gp_hpwl,
    global_density,
    per_cell_displacements,
    quadratic_objective,
    row_utilizations,
    total_hpwl,
    wirelength_stats,
)
from repro.netlist import CellMaster, Design, Pin


class TestDisplacement:
    def test_zero_at_gp(self, small_mixed_design):
        stats = displacement_stats(small_mixed_design)
        assert stats.total_manhattan == 0.0
        assert stats.total_quadratic == 0.0
        assert stats.num_cells == 30

    def test_known_values(self, empty_design, single_master):
        a = empty_design.add_cell("a", single_master, 0.0, 0.0)
        b = empty_design.add_cell("b", single_master, 10.0, 0.0)
        a.x, a.y = 3.0, 4.0
        b.x = 11.0
        stats = displacement_stats(empty_design)
        assert stats.total_manhattan == pytest.approx(8.0)
        assert stats.total_manhattan_sites == pytest.approx(8.0)
        assert stats.total_quadratic == pytest.approx(9 + 16 + 1)
        assert stats.max_manhattan == pytest.approx(7.0)
        assert stats.mean_manhattan == pytest.approx(4.0)
        assert quadratic_objective(empty_design) == stats.total_quadratic
        assert per_cell_displacements(empty_design) == [7.0, 1.0]

    def test_fixed_cells_excluded(self, empty_design, single_master):
        c = empty_design.add_cell("f", single_master, 0.0, 0.0, fixed=True)
        c.x = 100.0
        assert displacement_stats(empty_design).total_manhattan == 0.0

    def test_site_width_scaling(self):
        from repro.rows import CoreArea

        core = CoreArea(num_rows=2, row_height=9.0, num_sites=30, site_width=2.0)
        design = Design(name="d", core=core)
        m = CellMaster("S", width=4.0, height_rows=1)
        c = design.add_cell("c", m, 0.0, 0.0)
        c.x = 6.0
        assert displacement_stats(design).total_manhattan_sites == pytest.approx(3.0)

    def test_str_smoke(self, small_mixed_design):
        assert "disp(" in str(displacement_stats(small_mixed_design))

    @staticmethod
    def _per_cell_loop(design):
        total = total_sq = worst = 0.0
        cells = design.movable_cells
        for cell in cells:
            d = cell.displacement()
            total += d
            total_sq += cell.displacement_sq()
            if d > worst:
                worst = d
        n = len(cells)
        return DisplacementStats(
            total_manhattan=total,
            total_manhattan_sites=total / design.core.site_width,
            total_quadratic=total_sq,
            max_manhattan=worst,
            mean_manhattan=total / n if n else 0.0,
            num_cells=n,
        )

    def _assert_matches_per_cell_loop(self, design):
        def bits(stats):
            return [
                struct.pack("<d", v) if isinstance(v, float) else v
                for v in dataclasses.astuple(stats)
            ]

        assert bits(displacement_stats(design)) == bits(self._per_cell_loop(design))

    def test_matches_per_cell_loop_bitwise(self):
        from repro.benchgen import generate_benchmark
        from repro.core import legalize

        design = generate_benchmark(
            "fft_2", scale=0.02, seed=1, fences=2, macro_fraction=0.1
        )
        assert any(c.fixed for c in design.cells)
        legalize(design)
        self._assert_matches_per_cell_loop(design)
        rng = np.random.default_rng(0)
        for cell in design.movable_cells:
            cell.x += float(rng.normal(0.0, 3.7))
            cell.y -= float(rng.normal(0.0, 0.9))
        self._assert_matches_per_cell_loop(design)

    def test_empty_design_matches_per_cell_loop(self, empty_design):
        assert displacement_stats(empty_design) == self._per_cell_loop(empty_design)


class TestWirelength:
    def test_delta_hpwl(self, empty_design, single_master):
        a = empty_design.add_cell("a", single_master, 0.0, 0.0)
        b = empty_design.add_cell("b", single_master, 10.0, 0.0)
        empty_design.add_net("n", [Pin(cell=a), Pin(cell=b)])
        assert gp_hpwl(empty_design) == pytest.approx(10.0)
        b.x = 15.0
        assert total_hpwl(empty_design) == pytest.approx(15.0)
        stats = wirelength_stats(empty_design)
        assert stats.delta_hpwl == pytest.approx(0.5)
        assert stats.delta_hpwl_percent == pytest.approx(50.0)

    def test_zero_gp_hpwl(self, empty_design):
        stats = wirelength_stats(empty_design)
        assert stats.delta_hpwl == 0.0


class TestDensity:
    def test_global_density(self, small_mixed_design):
        assert 0.0 < global_density(small_mixed_design) < 1.0

    def test_density_map_conserves_area(self, small_mixed_design):
        grid = density_map(small_mixed_design, bins_x=8, bins_y=8)
        core = small_mixed_design.core
        bin_area = (core.width / 8) * (core.height / 8)
        total_cell_area = grid.sum() * bin_area
        assert total_cell_area == pytest.approx(
            small_mixed_design.total_cell_area(), rel=1e-6
        )

    def test_row_utilizations(self, empty_design, single_master):
        empty_design.add_cell("a", single_master, 0.0, 0.0)
        utils = row_utilizations(empty_design)
        assert utils[0] == pytest.approx(4.0 / 60.0)
        assert all(u == 0.0 for u in utils[1:])

    def test_row_utilization_multirow(self, empty_design, double_master_vss):
        empty_design.add_cell("d", double_master_vss, 0.0, 0.0)
        utils = row_utilizations(empty_design)
        assert utils[0] == pytest.approx(3.0 / 60.0)
        assert utils[1] == pytest.approx(3.0 / 60.0)
