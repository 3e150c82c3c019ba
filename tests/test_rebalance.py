"""Tests for the capacity-aware row rebalancing extension."""

import signal

import pytest

from repro.core import LegalizerConfig, MMSIMLegalizer
from repro.core.rebalance import rebalance_rows
from repro.core.row_assign import assign_rows
from repro.legality import check_legality
from repro.netlist import CellMaster, Design, RailType
from repro.rows import CoreArea


def _overfull_design():
    """Row 0 demanded by 3x width-20 cells in a 40-site core: 150% load."""
    core = CoreArea(num_rows=4, row_height=9.0, num_sites=40)
    design = Design(name="overfull", core=core)
    wide = CellMaster("W20", width=20.0, height_rows=1)
    for i in range(3):
        # Each cell individually fits its GP x; together they are 150% of
        # the row, so only the assignment (not the boundary) is at fault.
        design.add_cell(f"w{i}", wide, 2.0 + i * 7.0, 1.0)  # all want row 0
    return design


class TestRebalance:
    def test_moves_cells_out_of_overfull_row(self):
        design = _overfull_design()
        assignment = assign_rows(design)
        loads0 = sum(c.width for c in design.movable_cells if c.row_index == 0)
        assert loads0 == 60.0  # over the 40-site capacity
        moved = rebalance_rows(design, assignment)
        assert moved >= 1
        for r in range(design.core.num_rows):
            load = sum(
                c.width for c in design.movable_cells if c.row_index == r
            )
            assert load <= design.core.width + 1e-9

    def test_noop_on_balanced_design(self, small_mixed_design):
        assignment = assign_rows(small_mixed_design)
        before = [(c.row_index, c.y) for c in small_mixed_design.movable_cells]
        assert rebalance_rows(small_mixed_design, assignment) == 0
        after = [(c.row_index, c.y) for c in small_mixed_design.movable_cells]
        assert before == after

    def test_assignment_structures_rebuilt(self):
        design = _overfull_design()
        assignment = assign_rows(design)
        rebalance_rows(design, assignment)
        # Every cell appears in the row list of its assigned row, in GP order.
        for row, cells in assignment.rows.items():
            assert all(c.row_index == row for c in cells)
            gp_xs = [c.gp_x for c in cells]
            assert gp_xs == sorted(gp_xs)
        # y displacement matches the actual assignment.
        measured = sum(abs(c.y - c.gp_y) for c in design.movable_cells)
        assert assignment.y_displacement == pytest.approx(measured)

    def test_even_height_cells_stay_rail_correct(self):
        core = CoreArea(num_rows=6, row_height=9.0, num_sites=20)
        design = Design(name="rails", core=core)
        dbl = CellMaster("D12", width=12.0, height_rows=2, bottom_rail=RailType.VSS)
        for i in range(3):
            design.add_cell(f"d{i}", dbl, 2.0 + i * 3, 1.0)  # all want span (0,1)
        assignment = assign_rows(design)
        rebalance_rows(design, assignment)
        for cell in design.movable_cells:
            assert core.rails.row_is_correct(cell.master, cell.row_index)

    def test_flow_flag_end_to_end(self):
        design = _overfull_design()
        result = MMSIMLegalizer(LegalizerConfig(balance_rows=True)).legalize(design)
        assert check_legality(design).is_legal
        assert "rebalance" in result.stage_seconds
        # With balancing, nothing needed boundary repair.
        assert result.num_illegal == 0

    def test_flow_without_flag_spills(self):
        """Same design without balancing: the overfull row spills past the
        right boundary and the Tetris stage must repair it — the exact
        behaviour the extension removes."""
        design = _overfull_design()
        result = MMSIMLegalizer(LegalizerConfig(balance_rows=False)).legalize(design)
        assert check_legality(design).is_legal  # still repaired
        assert result.num_illegal >= 1


@pytest.fixture
def deadline():
    """Fail (instead of hanging) when the test body outlives *seconds*."""

    def expire(signum, frame):
        raise TimeoutError("rebalance_rows did not return")

    previous = signal.signal(signal.SIGALRM, expire)

    def arm(seconds):
        signal.alarm(seconds)

    yield arm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_tall_cells_covering_the_overfull_row_terminate(deadline):
    """Every correct bottom row (0-2) of a 3-row cell in a 5-row core
    covers row 2, so no move can relieve it; the loop must give up on
    that row instead of shuffling cells between spans that all cover it."""
    core = CoreArea(num_rows=5, row_height=1.0, num_sites=9, site_width=0.37)
    design = Design(name="tall", core=core)
    tall = CellMaster("T3", width=0.74, height_rows=3)
    for i in range(7):
        design.add_cell(f"t{i}", tall, 0.37 * i, 1.0)
    assignment = assign_rows(design)
    deadline(10)
    moved = rebalance_rows(design, assignment)
    budget = 0.95 * core.width
    for row in (1, 3):
        load = sum(
            c.width
            for c in design.movable_cells
            if c.row_index <= row < c.row_index + c.height_rows
        )
        assert load <= budget + 1e-9
    assert moved == 6
    assert all(
        core.row_is_correct(c.master, c.row_index) for c in design.movable_cells
    )
