"""The benchmark's own legality check flags planted violations."""

import numpy as np
import pytest

from perfbench import checks
from repro.netlist.cell import CellMaster, RailType
from repro.netlist.design import Design
from repro.rows.core_area import CoreArea

SINGLE = CellMaster("S4", width=4.0, height_rows=1)
DOUBLE_VSS = CellMaster("D3", width=3.0, height_rows=2, bottom_rail=RailType.VSS)
BLOCK = CellMaster("BLK", width=5.0, height_rows=1)


def legal_design() -> Design:
    """Legal placement on a 4-row, 20-site core (row 0's bottom rail is VSS)."""
    design = Design("t", CoreArea(num_rows=4, row_height=9.0, num_sites=20))
    design.add_cell("a", SINGLE, 0.0, 0.0)
    design.add_cell("b", SINGLE, 4.0, 0.0)
    design.add_cell("d", DOUBLE_VSS, 8.0, 0.0)    # rows 0-1, VSS bottom: ok
    design.add_cell("f", BLOCK, 12.0, 9.0, fixed=True)
    design.add_cell("g", BLOCK, 14.0, 9.0, fixed=True)  # fixed-fixed overlap: allowed
    design.add_cell("c", SINGLE, 0.0, 27.0)
    return design


def violations(design):
    table = checks.cell_table(design)
    x, y, _ = checks.design_positions(design)
    return checks.legality_violations(design, table, x, y)


def move(design, name, x=None, y=None):
    cell = design.cell_by_name(name)
    cell.x = cell.x if x is None else x
    cell.y = cell.y if y is None else y
    return design


def test_legal_placement_passes():
    assert violations(legal_design()) == []


def test_planted_overlap_is_flagged():
    found = violations(move(legal_design(), "b", x=2.0))
    assert any("overlaps" in v for v in found)


def test_overlap_hidden_behind_a_shorter_neighbour_is_flagged():
    # Row 2: wide [5, 15), s [6, 10), u [11, 15).  u does not overlap its
    # sorted neighbour s, only the wide cell two places back.
    design = legal_design()
    design.add_cell("wide", CellMaster("W10", width=10.0, height_rows=1), 5.0, 18.0)
    design.add_cell("s", SINGLE, 6.0, 18.0)
    design.add_cell("u", SINGLE, 11.0, 18.0)
    assert any(v.startswith("u: overlaps") for v in violations(design))


def test_movable_over_fixed_is_flagged():
    found = violations(move(legal_design(), "c", x=13.0, y=9.0))
    assert any("c: overlaps" in v or "f: overlaps" in v or "g: overlaps" in v for v in found)


def test_off_site_x_is_flagged():
    found = violations(move(legal_design(), "c", x=0.5))
    assert any("off the site grid" in v for v in found)


def test_off_row_y_is_flagged():
    found = violations(move(legal_design(), "c", y=26.0))
    assert any("off the row grid" in v for v in found)


def test_wrong_rail_even_height_cell_is_flagged():
    # Row 1's bottom rail is VDD; the master needs VSS.
    found = violations(move(legal_design(), "d", y=9.0))
    assert any("wrong-rail" in v for v in found)


def test_cell_outside_the_core_is_flagged():
    found = violations(move(legal_design(), "c", x=18.0))
    assert any("outside the core" in v for v in found)


def test_response_positions_must_follow_the_design_order():
    design = legal_design()
    table = checks.cell_table(design)
    positions = [{"name": c.name, "x": c.x, "y": c.y} for c in design.cells]
    x, y, flipped = checks.response_positions(table, positions)
    assert np.array_equal(x, checks.design_positions(design)[0])
    positions[0], positions[1] = positions[1], positions[0]
    with pytest.raises(ValueError):
        checks.response_positions(table, positions)


def test_digest_sees_a_one_ulp_change():
    design = legal_design()
    x, y, flipped = checks.design_positions(design)
    before = checks.digest(x, y, flipped)
    x[3] = np.nextafter(x[3], np.inf)
    assert checks.digest(x, y, flipped) != before


def test_displacement_counts_movable_cells_in_sites():
    design = legal_design()
    table = checks.cell_table(design)
    gp_x = np.array([c.gp_x for c in design.cells])
    gp_y = np.array([c.gp_y for c in design.cells])
    x, y, _ = checks.design_positions(design)
    x[0] += 2.0
    y[5] -= 9.0
    x[3] += 100.0   # fixed: not counted
    assert checks.displacement_sites(design, gp_x, gp_y, x, y, table.fixed) == 11.0
