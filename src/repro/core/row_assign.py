"""Stage 1 of the flow (Figure 4): align every cell to its nearest correct row.

"Correct" follows Section 3 of the paper:

* for an odd-row-height cell, the nearest row to its GP y position (a
  vertical flip fixes any rail mismatch, recorded in ``cell.flipped``);
* for an even-row-height cell, the nearest row whose bottom rail matches the
  cell's designed bottom-rail type.

Assigning every cell to its nearest correct row minimizes total
y-displacement independently of x (the y term of Problem (1) separates),
which is why the relaxation (5) only optimizes x afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.netlist.cell import CellInstance, CellMaster
from repro.netlist.design import Design, FenceRegion
from repro.rows.core_area import InfeasibleAssignment
from repro.rows.sitemap import footprint_rows


@dataclass
class RowAssignment:
    """Outcome of nearest-correct-row alignment.

    ``rows[r]`` lists the cells whose *bottom* row is r, sorted by GP x
    (the paper's fixed cell ordering).  ``occupied[r]`` lists every cell
    whose body intersects row r, also sorted by GP x — this is the
    per-row sequence the QP constraints are generated from, where a
    multi-row cell appears in several rows.
    """

    rows: Dict[int, List[CellInstance]] = field(default_factory=dict)
    occupied: Dict[int, List[CellInstance]] = field(default_factory=dict)
    y_displacement: float = 0.0
    num_flipped: int = 0

    def cells_in_row(self, row: int) -> List[CellInstance]:
        return self.occupied.get(row, [])


def assign_rows(design: Design) -> RowAssignment:
    """Assign every movable cell to its nearest correct row (in place).

    Sets ``cell.y`` to the row bottom, ``cell.row_index`` to the bottom row,
    and ``cell.flipped`` where rail matching required a vertical flip.
    ``cell.x`` keeps the GP x position — the MMSIM stage optimizes it next.

    Unfenced rows come from the array form of the rail rule
    (:meth:`~repro.rows.RailScheme.nearest_correct_rows`); fence members
    and cells without a legal row take the scalar rules in cell order.

    Raises :class:`~repro.rows.InfeasibleAssignment` (naming the offending
    cell) when a cell has no legal row at all — the design, not the flow,
    is at fault, and callers get a structured error instead of a crash or
    a silently wrong row deeper in the pipeline.  A NaN or infinite GP
    coordinate raises ``ValueError`` naming the cell.
    """
    core = design.core
    rails = core.rails
    movable = design.movable_cells
    n = len(movable)
    if not n:
        return RowAssignment()
    gp_x = np.fromiter((c.gp_x for c in movable), float, n)
    gp_y = np.fromiter((c.gp_y for c in movable), float, n)
    if not (np.isfinite(gp_x).all() and np.isfinite(gp_y).all()):
        design.validate_coordinates()
    ids = np.fromiter((c.id for c in movable), np.int64, n)
    # Per-master properties, looked up once per distinct master.
    index: Dict[int, int] = {}
    masters: List[CellMaster] = []
    kind = []
    for c in movable:
        k = index.get(id(c.master))
        if k is None:
            k = index[id(c.master)] = len(masters)
            masters.append(c.master)
        kind.append(k)
    height = np.array([m.height_rows for m in masters], dtype=np.int64)[kind]
    parity = np.array([rails.rail_parity(m) for m in masters], dtype=np.int64)[kind]
    row = rails.nearest_correct_rows(
        height, parity, gp_y, core.yl, core.row_height, core.num_rows
    )

    membership = design.fence_index_by_cell_id()
    scalar = row < 0
    if membership:
        scalar |= np.fromiter((c.id in membership for c in movable), bool, n)
    for i in np.flatnonzero(scalar).tolist():
        cell = movable[i]
        gi = membership.get(cell.id)
        try:
            if gi is not None:
                row[i] = _nearest_fence_row(design, cell, design.fences[gi])
            else:
                row[i] = core.nearest_correct_row(cell.master, cell.gp_y)
        except InfeasibleAssignment as exc:
            raise exc.for_cell(cell.name) from None

    y = core.yl + row * core.row_height
    # Odd-height cells with a declared rail flip on the other parity;
    # even-height cells sit on their own parity and never flip.
    flipped = ((height % 2) == 1) & (parity >= 0) & ((row % 2) != parity)
    for cell, r, yv, flip in zip(movable, row.tolist(), y.tolist(), flipped.tolist()):
        cell.row_index = r
        cell.y = yv
        cell.x = cell.gp_x
        cell.flipped = flip

    assignment = RowAssignment()
    assignment.num_flipped = int(flipped.sum())
    # Left to right, as a running ``+=`` would (not a pairwise sum).
    assignment.y_displacement = float(np.add.accumulate(np.abs(y - gp_y))[-1])
    # The paper's fixed ordering: cells in each row sorted by GP x.
    # Tie-break on cell id for determinism (equal GP x happens in practice).
    every = np.arange(n)
    assignment.rows = _bucket(movable, every, row, gp_x, ids)
    assignment.occupied = _bucket(
        movable, *footprint_rows(every, row, height), gp_x, ids
    )
    return assignment


def _bucket(movable, owner, key, gp_x, ids) -> Dict[int, List[CellInstance]]:
    """``{key: [cells sorted by (GP x, id)]}`` with keys in first-encounter
    order of the ``(owner, key)`` sequence."""
    order = np.lexsort((ids[owner], gp_x[owner], key))
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    bounds = np.r_[starts, len(order)].tolist()
    owners = owner[order].tolist()
    buckets = {
        int(sorted_key[lo]): [movable[i] for i in owners[lo:hi]]
        for lo, hi in zip(bounds[:-1], bounds[1:])
    }
    uniq, first_seen = np.unique(key, return_index=True)
    return {k: buckets[k] for k in uniq[np.argsort(first_seen)].tolist()}


def _nearest_fence_row(
    design: Design, cell: CellInstance, fence: FenceRegion
) -> int:
    """Nearest correct bottom row where the cell's full span has fence
    coverage wide enough to hold it.

    Like :meth:`CoreArea.nearest_correct_row` but the fit range is the
    fence region, not the core: every spanned row must be covered by the
    fence, and the x-intervals common to all spanned rows must admit the
    cell's width somewhere.
    """
    core = design.core
    best = None
    best_cost = None
    for row in core.correct_rows(cell.master):
        spans = fence.row_spans(core, row)
        for r in range(row + 1, row + cell.height_rows):
            if not spans:
                break
            upper = fence.row_spans(core, r)
            spans = _intersect_spans(spans, upper)
        if not any(hi - lo >= cell.width - 1e-9 * core.site_width
                   for lo, hi in spans):
            continue
        cost = abs(core.row_y(row) - cell.gp_y)
        if best is None or cost < best_cost:
            best, best_cost = row, cost
    if best is None:
        raise InfeasibleAssignment(
            cell.master.name,
            cell.master.height_rows,
            core.num_rows,
            bottom_rail=(
                cell.master.bottom_rail if cell.master.is_even_height else None
            ),
        )
    return best


def _intersect_spans(a, b):
    """Intersect two sorted disjoint (lo, hi) span lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out
