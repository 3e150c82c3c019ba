"""Tests for subcell splitting and QP construction — including the paper's
worked examples (Figures 2 and 3)."""

import numpy as np
import pytest

from repro.core.qp_builder import build_constraints, build_legalization_qp, initial_point
from repro.core.row_assign import assign_rows
from repro.core.subcells import restore_cells, split_cells
from repro.netlist import CellMaster, Design, RailType
from repro.rows import CoreArea


def _figure2_design():
    """The paper's Figure 2: single-height cells c2, c4 on row 1 (here row 0)
    and c1, c3, c5 on row 2 (here row 1), ordered by x."""
    core = CoreArea(num_rows=2, row_height=9.0, num_sites=100)
    design = Design(name="fig2", core=core)
    widths = {1: 4.0, 2: 5.0, 3: 6.0, 4: 4.0, 5: 5.0}
    rows = {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
    xs = {1: 5.0, 2: 8.0, 3: 20.0, 4: 25.0, 5: 40.0}
    for i in range(1, 6):
        m = CellMaster(f"M{i}", width=widths[i], height_rows=1)
        design.add_cell(f"c{i}", m, xs[i], rows[i] * 9.0)
    return design


def _figure3_design():
    """The paper's Figure 3: c1 and c3 double-height, c2 single-height in
    the lower row, ordered c1 < c2 < c3 by x."""
    core = CoreArea(num_rows=2, row_height=9.0, num_sites=100)
    design = Design(name="fig3", core=core)
    d1 = CellMaster("D1", width=4.0, height_rows=2, bottom_rail=RailType.VSS)
    s2 = CellMaster("S2", width=5.0, height_rows=1)
    d3 = CellMaster("D3", width=4.0, height_rows=2, bottom_rail=RailType.VSS)
    design.add_cell("c1", d1, 2.0, 0.0)
    design.add_cell("c2", s2, 10.0, 0.0)
    design.add_cell("c3", d3, 20.0, 0.0)
    return design


class TestPaperFigure2:
    def test_constraint_matrix_matches_paper(self):
        design = _figure2_design()
        assignment = assign_rows(design)
        model = split_cells(design, assignment)
        B, b, _ = build_constraints(model)
        # Variables are x1..x5 in cell-id order (all single-height).
        # Row 0 (paper's row 1) holds c2 < c4; row 1 holds c1 < c3 < c5.
        dense = B.toarray()
        expected = np.array(
            [
                [0, -1, 0, 1, 0],   # x4 - x2 >= w2
                [-1, 0, 1, 0, 0],   # x3 - x1 >= w1
                [0, 0, -1, 0, 1],   # x5 - x3 >= w3
            ],
            dtype=float,
        )
        # Constraint order is (row0 pairs, then row1 pairs); the paper lists
        # the same three rows in a different order, so compare as sets.
        got = {tuple(row) for row in dense}
        want = {tuple(row) for row in expected}
        assert got == want
        assert sorted(b.tolist()) == sorted([5.0, 4.0, 6.0])

    def test_p_vector_is_negative_gp_x(self):
        design = _figure2_design()
        assignment = assign_rows(design)
        model = split_cells(design, assignment)
        lq = build_legalization_qp(design, model)
        assert np.allclose(lq.qp.p, [-5.0, -8.0, -20.0, -25.0, -40.0])

    def test_b_full_row_rank(self):
        design = _figure2_design()
        model = split_cells(design, assign_rows(design))
        B, _, _ = build_constraints(model)
        assert np.linalg.matrix_rank(B.toarray()) == B.shape[0]
        assert B.shape[0] < B.shape[1]  # m < n (Proposition 1)


class TestPaperFigure3:
    def test_matrices_match_paper(self):
        design = _figure3_design()
        assignment = assign_rows(design)
        model = split_cells(design, assignment)
        # Variables: x11, x12 (c1 subcells), x21 (c2), x31, x32 (c3).
        assert model.num_variables == 5
        assert model.cell_start.tolist() == [0, 2, 3, 5]
        assert model.var_cell.tolist() == [0, 0, 1, 2, 2]
        assert model.var_slice.tolist() == [0, 1, 0, 0, 1]
        # Row 0: x11 < x21 < x31; row 1: x12 < x32.
        assert model.row_start.tolist()[:3] == [0, 3, 5]
        assert model.row_vars.tolist() == [0, 2, 3, 1, 4]

        B, b, _ = build_constraints(model)
        E = model.equality_matrix()
        # Paper's B (rows may be permuted): row0 chain x11<x21<x31 and
        # row1 chain x12<x32.
        got_B = {tuple(row) for row in B.toarray()}
        want_B = {
            (-1, 0, 1, 0, 0),   # x21 - x11 >= w1
            (0, 0, -1, 1, 0),   # x31 - x21 >= w2
            (0, -1, 0, 0, 1),   # x32 - x12 >= w1 (upper row: c1 then c3)
        }
        assert got_B == {tuple(float(v) for v in row) for row in want_B}
        assert np.linalg.matrix_rank(B.toarray()) == 3

        got_E = {tuple(row) for row in E.toarray()}
        want_E = {
            (-1.0, 1.0, 0.0, 0.0, 0.0),   # x11 = x12
            (0.0, 0.0, 0.0, -1.0, 1.0),   # x31 = x32
        }
        assert got_E == want_E

    def test_paper_example_not_full_rank_without_split(self):
        """The paper's point: naive per-row constraints over one variable
        per cell give a rank-deficient B for Figure 3."""
        B_naive = np.array([[-1, 1, 0], [0, -1, 1], [-1, 0, 1]], dtype=float)
        assert np.linalg.matrix_rank(B_naive) == 2  # not full row rank

    def test_hessian_spd(self):
        design = _figure3_design()
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model, lam=1000.0)
        H = lq.qp.H.toarray()
        assert np.allclose(H, H.T)
        assert np.all(np.linalg.eigvalsh(H) > 0)  # Proposition 2


class TestSubcellModel:
    def test_requires_row_assignment(self, small_mixed_design):
        with pytest.raises(ValueError, match="row assignment"):
            split_cells(small_mixed_design, _unassigned(small_mixed_design))

    def test_restore_averages_and_reports_mismatch(self, empty_design, double_master_vss):
        c = empty_design.add_cell("c", double_master_vss, 5.0, 0.0)
        assignment = assign_rows(empty_design)
        model = split_cells(empty_design, assignment)
        x = np.array([6.0, 8.0])
        max_mm, mean_mm = restore_cells(empty_design, model, x, x_origin=0.0)
        assert c.x == pytest.approx(7.0)
        assert max_mm == pytest.approx(2.0)
        assert mean_mm == pytest.approx(2.0)

    def test_restore_with_origin_shift(self, double_master_vss):
        core = CoreArea(xl=100.0, num_rows=4, row_height=9.0, num_sites=50)
        design = Design(name="d", core=core)
        c = design.add_cell("c", double_master_vss, 110.0, 0.0)
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        # Targets are shifted into core-local coordinates.
        assert np.allclose(lq.qp.p, [-10.0, -10.0])
        restore_cells(design, model, np.array([12.0, 12.0]), x_origin=core.xl)
        assert c.x == pytest.approx(112.0)

    def test_initial_point(self, empty_design, single_master):
        empty_design.add_cell("c", single_master, 7.0, 0.0)
        model = split_cells(empty_design, assign_rows(empty_design))
        lq = build_legalization_qp(empty_design, model)
        assert np.allclose(initial_point(lq), [7.0])
        assert np.allclose(initial_point(lq, from_gp=False), [0.0])

    def test_lambda_must_be_positive(self, small_mixed_design):
        model = split_cells(small_mixed_design, assign_rows(small_mixed_design))
        with pytest.raises(ValueError):
            build_legalization_qp(small_mixed_design, model, lam=0.0)


class TestLegalizationQPLower:
    def test_none_lower_materializes_to_zeros(self, empty_design, single_master):
        """``lower=None`` must become a real zero vector so to_positions
        never needs a None branch."""
        from repro.core.qp_builder import LegalizationQP

        empty_design.add_cell("c", single_master, 7.0, 0.0)
        model = split_cells(empty_design, assign_rows(empty_design))
        lq = build_legalization_qp(empty_design, model)
        bare = LegalizationQP(
            qp=lq.qp, E=lq.E, lam=lq.lam, x_origin=lq.x_origin, model=model
        )
        assert isinstance(bare.lower, np.ndarray)
        assert bare.lower.shape == (lq.num_variables,)
        assert np.all(bare.lower == 0.0)
        y = np.array([3.0])
        assert np.array_equal(bare.to_positions(y), y)

    def test_explicit_lower_coerced_and_applied(self, empty_design, single_master):
        from repro.core.qp_builder import LegalizationQP

        empty_design.add_cell("c", single_master, 7.0, 0.0)
        model = split_cells(empty_design, assign_rows(empty_design))
        lq = build_legalization_qp(empty_design, model)
        shifted = LegalizationQP(
            qp=lq.qp, E=lq.E, lam=lq.lam, x_origin=lq.x_origin,
            model=model, lower=[2.5],
        )
        assert shifted.lower.dtype == float
        assert np.array_equal(shifted.to_positions(np.array([1.0])), [3.5])


def _unassigned(design):
    """A RowAssignment-shaped object for a design without assignments."""
    from repro.core.row_assign import RowAssignment

    for cell in design.movable_cells:
        cell.row_index = None
    return RowAssignment()
