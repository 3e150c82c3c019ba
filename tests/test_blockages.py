"""Tests for blockage generation and obstacle handling across algorithms."""

import pytest

from repro.baselines import ChowLegalizer, TetrisLegalizer, WangLegalizer
from repro.benchgen.generator import generate_benchmark
from repro.core import MMSIMLegalizer
from repro.legality import check_legality


def _blocked(seed=4, fraction=0.25):
    return generate_benchmark(
        "fft_a", scale=0.015, seed=seed, blockage_fraction=fraction
    )


class TestBlockageGeneration:
    def test_blockages_created_as_fixed_cells(self):
        design = _blocked()
        blockages = [c for c in design.cells if c.fixed]
        assert blockages
        assert all(c.name.startswith("blk") for c in blockages)
        assert all(c.height_rows == 1 for c in blockages)

    def test_zero_fraction_no_blockages(self):
        design = generate_benchmark("fft_a", scale=0.01, seed=4)
        assert not any(c.fixed for c in design.cells)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            generate_benchmark(
                "fft_a", scale=0.01, seed=4, blockage_fraction=1.5
            )

    def test_blockages_do_not_overlap_each_other(self):
        design = _blocked(fraction=0.5)
        # The *fixed cells alone* must form a legal sub-placement.
        from repro.netlist import Design

        sub = Design(name="sub", core=design.core)
        for cell in design.cells:
            if cell.fixed:
                sub.add_cell(cell.name, cell.master, cell.x, cell.y, fixed=True)
        assert check_legality(sub).is_legal

    def test_deterministic(self):
        a = _blocked(seed=9)
        b = _blocked(seed=9)
        assert [(c.name, c.x, c.y) for c in a.cells if c.fixed] == [
            (c.name, c.x, c.y) for c in b.cells if c.fixed
        ]


class TestAlgorithmsWithBlockages:
    @pytest.mark.parametrize(
        "factory",
        [
            MMSIMLegalizer,
            TetrisLegalizer,
            ChowLegalizer,
            lambda: ChowLegalizer(improved=True),
            WangLegalizer,
        ],
    )
    def test_legal_results(self, factory):
        design = _blocked(seed=11, fraction=0.25)
        result = factory().legalize(design)
        report = check_legality(design)
        assert report.is_legal, report.summary()
        # Blockages never move.
        for cell in design.cells:
            if cell.fixed:
                assert cell.name.startswith("blk")

    def test_mmsim_converges_with_blockages(self):
        design = _blocked(seed=4, fraction=0.3)
        result = MMSIMLegalizer().legalize(design)
        assert result.converged
        assert check_legality(design).is_legal

    def test_blockage_positions_preserved(self):
        design = _blocked(seed=5)
        before = {c.name: (c.x, c.y) for c in design.cells if c.fixed}
        MMSIMLegalizer().legalize(design)
        after = {c.name: (c.x, c.y) for c in design.cells if c.fixed}
        assert before == after


class TestJointRouting:
    """Multi-row cells route around the union of their rows' obstacles."""

    def _design_with_staggered_obstacles(self):
        from repro.netlist import CellMaster, Design, RailType
        from repro.rows import CoreArea

        core = CoreArea(num_rows=4, row_height=9.0, num_sites=60)
        design = Design(name="stag", core=core)
        blk = CellMaster("BLK10", width=10.0, height_rows=1)
        design.add_cell("blk0", blk, 10.0, 0.0, fixed=True)   # row 0: [10,20)
        design.add_cell("blk1", blk, 24.0, 9.0, fixed=True)   # row 1: [24,34)
        dbl = CellMaster("D6", width=6.0, height_rows=2, bottom_rail=RailType.VSS)
        design.add_cell("d", dbl, 12.0, 0.5)  # wants to sit on blk0
        return design

    def test_joint_lower_spans_both_rows(self):
        from repro.core.qp_builder import _joint_lowers, fixed_cell_anchors
        from repro.core.row_assign import assign_rows
        from repro.core.subcells import split_cells

        design = self._design_with_staggered_obstacles()
        model = split_cells(design, assign_rows(design))
        joint = _joint_lowers(model, fixed_cell_anchors(design), design.core.xl)
        d = design.cell_by_name("d")
        lowers = joint[model.cell_id[model.var_cell] == d.id].tolist()
        # Both subcells share one joint bound; the first merged gap that
        # fits width 6 and reaches gp=12 is [20, 24)? only 4 wide -> the
        # router must skip to after the second obstacle (34).
        assert lowers == [34.0, 34.0]

    def test_joint_routed_cell_legal_without_repair(self):
        from repro.core import LegalizerConfig, MMSIMLegalizer

        design = self._design_with_staggered_obstacles()
        result = MMSIMLegalizer(
            LegalizerConfig(tol=1e-8, residual_tol=1e-6)
        ).legalize(design)
        assert check_legality(design).is_legal
        d = design.cell_by_name("d")
        assert d.x >= 34.0 - 1e-9  # clear of both staggered obstacles

    def test_fitting_gap_is_used(self):
        from repro.core.qp_builder import _joint_lowers, fixed_cell_anchors
        from repro.core.row_assign import assign_rows
        from repro.core.subcells import split_cells
        from repro.netlist import CellMaster, Design, RailType
        from repro.rows import CoreArea

        core = CoreArea(num_rows=4, row_height=9.0, num_sites=60)
        design = Design(name="fit", core=core)
        blk = CellMaster("BLK10", width=10.0, height_rows=1)
        design.add_cell("blk0", blk, 10.0, 0.0, fixed=True)   # row 0: [10,20)
        design.add_cell("blk1", blk, 30.0, 9.0, fixed=True)   # row 1: [30,40)
        dbl = CellMaster("D6", width=6.0, height_rows=2, bottom_rail=RailType.VSS)
        design.add_cell("d", dbl, 12.0, 0.5)
        model = split_cells(design, assign_rows(design))
        joint = _joint_lowers(model, fixed_cell_anchors(design), core.xl)
        d = design.cell_by_name("d")
        # The gap [20, 30) fits width 6 and reaches gp=12: route there.
        assert joint[model.cell_id[model.var_cell] == d.id].tolist() == [20.0, 20.0]
