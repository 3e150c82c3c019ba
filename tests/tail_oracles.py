"""Per-cell reference implementations of the flow's array-pass stages.

Each function here is the plain per-cell loop that the corresponding
stage in ``src/`` replaced with numpy passes: Tetris pass 1 (with the
final canonicalization and ``fix_displacement`` total), the audit's
per-cell containment/alignment/rail checks, and row assignment.  The
property tests compare the production stages against these bit for bit.
Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

import repro.core.row_assign as row_assign
import repro.core.tetris_fix as tetris_fix
import repro.legality.checker as checker
from repro.core.row_assign import RowAssignment
from repro.core.tetris_fix import TetrisFixStats
from repro.geometry import is_on_grid
from repro.legality.violations import LegalityReport, Violation, ViolationKind
from repro.rows.core_area import InfeasibleAssignment


# ----------------------------------------------------------------------
# Tetris allocation: the (x, id)-ordered per-cell SiteMap scan
# ----------------------------------------------------------------------
def tetris_allocate_oracle(design) -> TetrisFixStats:
    core = design.core
    stats = TetrisFixStats(num_cells=len(design.movable_cells))
    membership = design.fence_index_by_cell_id() if design.fences else {}
    maps, blocked_x = tetris_fix._obstacle_maps(design)

    order = sorted(design.movable_cells, key=lambda c: (c.x, c.id))
    illegal = []
    for cell in order:
        cell_map = maps[membership.get(cell.id, -1)]
        if cell.row_index is None:
            try:
                cell.row_index = core.nearest_correct_row(cell.master, cell.y)
            except InfeasibleAssignment as exc:
                raise exc.for_cell(cell.name) from None
            cell.y = core.row_y(cell.row_index)
        snapped = core.snap_x(cell.x)
        site = int(round((snapped - core.xl) / core.site_width))
        n_sites = cell_map.sites_of_width(cell.width)
        if cell_map.footprint_free(cell.row_index, site, n_sites, cell.height_rows):
            cell.x = snapped
            cell_map.occupy_cell(cell, cell.row_index, site)
        else:
            illegal.append(cell)
    stats.num_illegal = len(illegal)
    stats.illegal_cell_ids = [c.id for c in illegal]

    pre_fix = {c.id: (c.x, c.y) for c in design.movable_cells}
    tetris_fix._fix_illegal(design, illegal, membership, maps, blocked_x, stats)
    for cell in design.movable_cells:
        cell.x = core.snap_x(cell.x)
        if cell.row_index is not None:
            cell.y = core.row_y(cell.row_index)
    stats.fix_displacement = sum(
        abs(c.x - pre_fix[c.id][0]) + abs(c.y - pre_fix[c.id][1])
        for c in design.movable_cells
    )
    return stats


# ----------------------------------------------------------------------
# Legality audit: three scalar checks per cell
# ----------------------------------------------------------------------
def check_legality_oracle(design, check_sites: bool = True) -> LegalityReport:
    report = LegalityReport(num_cells_checked=design.num_cells)
    for cell in design.cells:
        _containment(cell, design, report)
        _alignment(cell, design, report, check_sites)
        _rails(cell, design, report)
    core = design.core
    rh = core.row_height
    x = np.array([c.x for c in design.cells], dtype=float)
    y = np.array([c.y for c in design.cells], dtype=float)
    w = np.array([c.width for c in design.cells], dtype=float)
    h = np.array([c.height(rh) for c in design.cells], dtype=float)
    checker._check_overlaps(
        design, report, x, y, w, h,
        checker.site_tolerance(core), checker.row_tolerance(core),
    )
    checker._check_fences(design, report)
    return report


def _containment(cell, design, report) -> None:
    core = design.core
    rect = cell.rect(core.row_height)
    excess_x = max(core.xl - rect.xl, rect.xh - core.xh, 0.0)
    excess_y = max(core.yl - rect.yl, rect.yh - core.yh, 0.0)
    excess = max(excess_x, excess_y)
    if (excess_x > checker.site_tolerance(core)
            or excess_y > checker.row_tolerance(core)):
        report.add(Violation(
            kind=ViolationKind.OUT_OF_CORE, cell_id=cell.id, amount=excess,
            message=f"cell {cell.name} exceeds core by {excess:g}",
        ))


def _alignment(cell, design, report, check_sites) -> None:
    core = design.core
    tol_sites = checker.site_tolerance(core) / core.site_width
    tol_rows = checker.row_tolerance(core) / core.row_height
    if check_sites and not is_on_grid(cell.x, core.xl, core.site_width, tol_sites):
        report.add(Violation(
            kind=ViolationKind.OFF_SITE, cell_id=cell.id,
            amount=abs(cell.x - core.snap_x(cell.x)),
            message=f"cell {cell.name} x={cell.x:g} off the site grid",
        ))
    if not is_on_grid(cell.y, core.yl, core.row_height, tol_rows):
        report.add(Violation(
            kind=ViolationKind.OFF_ROW, cell_id=cell.id,
            amount=abs(cell.y - core.row_y(core.row_of_y(cell.y))),
            message=f"cell {cell.name} y={cell.y:g} not on a row boundary",
        ))


def _rails(cell, design, report) -> None:
    core = design.core
    tol_rows = checker.row_tolerance(core) / core.row_height
    if not is_on_grid(cell.y, core.yl, core.row_height, tol_rows):
        return
    row = core.row_of_y(cell.y)
    if cell.master.is_even_height and not core.rails.row_is_correct(cell.master, row):
        report.add(Violation(
            kind=ViolationKind.RAIL_MISMATCH, cell_id=cell.id, amount=1.0,
            message=(
                f"even-height cell {cell.name} on row {row} with bottom rail "
                f"{core.bottom_rail(row).value}, needs "
                f"{cell.master.bottom_rail.value}"
            ),
        ))


# ----------------------------------------------------------------------
# Row assignment: one scalar nearest-correct-row call per cell
# ----------------------------------------------------------------------
def assign_rows_oracle(design) -> RowAssignment:
    core = design.core
    assignment = RowAssignment()
    membership = design.fence_index_by_cell_id()
    for cell in design.movable_cells:
        fence = (
            design.fences[membership[cell.id]] if cell.id in membership else None
        )
        try:
            if fence is not None:
                row = row_assign._nearest_fence_row(design, cell, fence)
            else:
                row = core.nearest_correct_row(cell.master, cell.gp_y)
        except InfeasibleAssignment as exc:
            raise exc.for_cell(cell.name) from None
        cell.row_index = row
        cell.y = core.row_y(row)
        cell.x = cell.gp_x
        cell.flipped = (
            not cell.master.is_even_height
            and cell.master.bottom_rail is not None
            and core.rails.needs_flip(cell.master, row)
        )
        if cell.flipped:
            assignment.num_flipped += 1
        assignment.y_displacement += abs(cell.y - cell.gp_y)
        assignment.rows.setdefault(row, []).append(cell)
        for r in range(row, row + cell.height_rows):
            assignment.occupied.setdefault(r, []).append(cell)
    for row_cells in assignment.rows.values():
        row_cells.sort(key=lambda c: (c.gp_x, c.id))
    for row_cells in assignment.occupied.values():
        row_cells.sort(key=lambda c: (c.gp_x, c.id))
    return assignment
