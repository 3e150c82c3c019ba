"""Capacity-aware row rebalancing (extension beyond the paper).

The paper assigns every cell to its nearest correct row unconditionally.
On dense designs a row can end up with more total cell width than the core
is wide; since the MMSIM never moves cells across rows, every excess unit
of width must spill past the (relaxed) right boundary and be repaired by
the Tetris stage — the source of Table 1's illegal cells.

``rebalance_rows`` runs between row assignment and subcell splitting: while
any row set is over capacity, it moves the cheapest boundary cells (those
whose second-nearest correct row costs least extra y displacement) from
overfull rows into neighbouring rows with slack.  Multi-row cells charge
their width to every row they span and move as units.

This is deliberately conservative: cells move at most a few rows, only to
*correct* rows, and only when capacity demands it, so the GP ordering
premise stays intact.  Enable with ``LegalizerConfig(balance_rows=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.row_assign import RowAssignment
from repro.netlist.cell import CellInstance
from repro.netlist.design import Design


def rebalance_rows(
    design: Design,
    assignment: RowAssignment,
    utilization: float = 0.95,
    max_passes: int = 4,
) -> int:
    """Shift cells out of over-capacity rows; returns the number moved.

    ``utilization`` is the per-row width budget as a fraction of the core
    width.  The default leaves 5% headroom: rows balanced to exactly 100%
    still tend to spill past the relaxed right boundary, because the
    quadratic optimum shifts whole clusters toward their GP targets.  The assignment's ``rows`` / ``occupied``
    structures and the cells' ``row_index`` / ``y`` are updated in place.
    """
    core = design.core
    budget = utilization * core.width
    loads: Dict[int, float] = {r: 0.0 for r in range(core.num_rows)}
    for cell in design.movable_cells:
        for r in range(cell.row_index, cell.row_index + cell.height_rows):
            loads[r] += cell.width

    moved = 0
    for _ in range(max_passes):
        overfull = [r for r in range(core.num_rows) if loads[r] > budget + 1e-9]
        if not overfull:
            break
        progress = False
        for row in overfull:
            while loads[row] > budget + 1e-9:
                move = _cheapest_move(design, core, loads, budget, row)
                if move is None:
                    break
                cell, new_row = move
                _apply_move(cell, new_row, loads, assignment, core)
                moved += 1
                progress = True
        if not progress:
            break
    if moved:
        _rebuild_assignment(design, assignment)
    return moved


def _cheapest_move(design, core, loads, budget, row) -> Optional[tuple]:
    """Best (cell, new_row): smallest extra y cost whose target has slack.

    Only moves whose new span leaves *row* are offered, so every move
    strictly lowers the overfull row's load (a tall cell shifted to a
    bottom row that still covers *row* would not, and the caller's loop
    would never end).
    """
    best: Optional[tuple] = None
    best_cost = float("inf")
    for cell in assignment_cells(design, row):
        span = range(cell.row_index, cell.row_index + cell.height_rows)
        if row not in span:
            continue
        for new_row in _alternative_rows(core, cell):
            new_span = range(new_row, new_row + cell.height_rows)
            if row in new_span:
                continue
            if any(
                loads[r] + cell.width > budget + 1e-9
                for r in new_span
                if r not in span
            ):
                continue
            cost = abs(core.row_y(new_row) - cell.gp_y) - abs(
                core.row_y(cell.row_index) - cell.gp_y
            )
            if cost < best_cost:
                best_cost = cost
                best = (cell, new_row)
    return best


def assignment_cells(design: Design, row: int) -> List[CellInstance]:
    """Movable cells whose footprint crosses *row*."""
    return [
        c
        for c in design.movable_cells
        if c.row_index is not None
        and c.row_index <= row < c.row_index + c.height_rows
    ]


def _alternative_rows(core, cell: CellInstance) -> List[int]:
    """Correct bottom rows ordered by |y distance| from the GP position."""
    max_bottom = core.num_rows - cell.height_rows
    rows = [
        r
        for r in range(max_bottom + 1)
        if core.rails.row_is_correct(cell.master, r)
    ]
    rows.sort(key=lambda r: abs(core.row_y(r) - cell.gp_y))
    return rows[:6]  # moving further than a few rows defeats the purpose


def _apply_move(cell, new_row, loads, assignment, core) -> None:
    for r in range(cell.row_index, cell.row_index + cell.height_rows):
        loads[r] -= cell.width
    for r in range(new_row, new_row + cell.height_rows):
        loads[r] += cell.width
    cell.row_index = new_row
    cell.y = core.row_y(new_row)
    if cell.master.bottom_rail is not None and not cell.master.is_even_height:
        cell.flipped = core.rails.needs_flip(cell.master, new_row)


def _rebuild_assignment(design: Design, assignment: RowAssignment) -> None:
    """Recompute the per-row sequences and y displacement after moves."""
    assignment.rows = {}
    assignment.occupied = {}
    assignment.y_displacement = 0.0
    for cell in design.movable_cells:
        assignment.y_displacement += abs(cell.y - cell.gp_y)
        assignment.rows.setdefault(cell.row_index, []).append(cell)
        for r in range(cell.row_index, cell.row_index + cell.height_rows):
            assignment.occupied.setdefault(r, []).append(cell)
    for cells in assignment.rows.values():
        cells.sort(key=lambda c: (c.gp_x, c.id))
    for cells in assignment.occupied.values():
        cells.sort(key=lambda c: (c.gp_x, c.id))

