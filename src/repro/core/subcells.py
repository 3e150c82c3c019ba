"""Stage 2 of the flow (Figure 4): multi-row cell splitting and restoration.

A cell of height d rows assigned to bottom row r is modelled by d
single-row *subcells*, one per occupied row, all sharing the cell's width
and GP x target.  The equality constraints ``Ex = 0`` tie the subcells'
x variables together; following the paper's Figure 3 example, E uses the
*star* pattern: one row ``x_{i,1} − x_{i,j} = 0`` for each extra subcell
j = 2..d (coefficients −1 on the first subcell, +1 on subcell j).

The split is pure index bookkeeping, so :class:`SubcellModel` holds it as
arrays built in a few numpy passes over one extraction of the cells.

After the MMSIM solve, :func:`restore_cells` writes each cell's x back as
the mean of its subcells and reports the worst subcell mismatch — nonzero
mismatch (bounded by the λ penalty) is one source of Table 1's rare
illegal cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.row_assign import RowAssignment
from repro.netlist.design import Design


@dataclass
class SubcellModel:
    """Variable space of the relaxed QP, as arrays.

    Cell i is the i-th of ``design.movable_cells`` (cell-id order).  It
    owns variables ``cell_start[i]:cell_start[i + 1]``, bottom slice
    first.  Chip row r holds variables
    ``row_vars[row_start[r]:row_start[r + 1]]`` in (GP x, cell id) order,
    the sequence the non-overlap constraints are generated from.
    """

    #: Per cell: design cell id, width and GP x (snapshots taken at split).
    cell_id: np.ndarray
    cell_width: np.ndarray
    cell_gp_x: np.ndarray
    #: Offsets of each cell's variables (len num_cells + 1).
    cell_start: np.ndarray
    #: Per variable: owning cell index, chip row, slice index (0 = bottom).
    var_cell: np.ndarray
    var_row: np.ndarray
    var_slice: np.ndarray
    #: Per-row variable sequences: offsets (len num_rows + 1) and ids.
    row_start: np.ndarray
    row_vars: np.ndarray

    @property
    def num_variables(self) -> int:
        return self.var_cell.size

    def width_array(self) -> np.ndarray:
        """Every variable's width (its cell's)."""
        return self.cell_width[self.var_cell]

    def target_array(self, x_origin: float) -> np.ndarray:
        """Every variable's GP x target, shifted so the core left edge is 0."""
        return self.cell_gp_x[self.var_cell] - x_origin

    def equality_matrix(self) -> sp.csr_matrix:
        """The paper's E: one star row per extra subcell of multi-row cells."""
        others = np.flatnonzero(self.var_slice)
        k = others.size
        cols = np.empty(2 * k, dtype=np.intp)
        cols[0::2] = self.cell_start[self.var_cell[others]]
        cols[1::2] = others
        return sp.csr_matrix(
            (np.tile([-1.0, 1.0], k), (np.repeat(np.arange(k), 2), cols)),
            shape=(k, self.num_variables),
        )


def split_cells(design: Design, assignment: RowAssignment) -> SubcellModel:
    """Create the subcell variable space from a row assignment.

    Variable ids are dense, assigned cell by cell in id order and bottom-up
    within a cell.  Rows come from each cell's ``row_index``, which
    :func:`repro.core.row_assign.assign_rows` and ``rebalance_rows`` keep
    in step with *assignment*; each row's sequence is ordered by (GP x,
    cell id), the order of ``assignment.occupied``.
    """
    cells = design.movable_cells
    rows = [cell.row_index for cell in cells]
    if None in rows:
        name = cells[rows.index(None)].name
        raise ValueError(
            f"cell {name!r} has no row assignment; run assign_rows first"
        )
    n = len(cells)
    masters = [cell.master for cell in cells]
    cell_id = np.fromiter((cell.id for cell in cells), np.intp, n)
    gp_x = np.fromiter((cell.gp_x for cell in cells), float, n)
    width = np.fromiter((m.width for m in masters), float, n)
    height = np.fromiter((m.height_rows for m in masters), np.intp, n)

    cell_start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(height, out=cell_start[1:])
    var_cell = np.repeat(np.arange(n), height)
    var_slice = np.arange(var_cell.size) - cell_start[var_cell]
    var_row = np.asarray(rows, dtype=np.intp)[var_cell] + var_slice
    row_vars = np.lexsort((cell_id[var_cell], gp_x[var_cell], var_row))
    per_row = np.bincount(var_row, minlength=design.core.num_rows)
    row_start = np.zeros(per_row.size + 1, dtype=np.intp)
    np.cumsum(per_row, out=row_start[1:])
    return SubcellModel(
        cell_id=cell_id,
        cell_width=width,
        cell_gp_x=gp_x,
        cell_start=cell_start,
        var_cell=var_cell,
        var_row=var_row,
        var_slice=var_slice,
        row_start=row_start,
        row_vars=row_vars,
    )


def restore_cells(
    design: Design, model: SubcellModel, x: np.ndarray, x_origin: float
) -> Tuple[float, float]:
    """Write solved x values back to cells (mean over subcells).

    Returns ``(max_mismatch, mean_mismatch)`` over multi-row cells, where a
    cell's mismatch is the spread ``max_j x_j − min_j x_j`` of its subcell
    positions (0 for single-row cells).  With the paper's λ = 1000 the
    spread is tiny; the Tetris stage absorbs whatever remains.
    """
    cells = design.movable_cells
    if not cells:
        return 0.0, 0.0
    # Each cell's variables are one contiguous block.
    starts = model.cell_start[:-1]
    counts = np.diff(model.cell_start)
    values = np.asarray(x, dtype=float)[: model.num_variables]
    means = np.add.reduceat(values, starts) / counts + x_origin
    spreads = (
        np.maximum.reduceat(values, starts)
        - np.minimum.reduceat(values, starts)
    )
    for cell, mean in zip(cells, means.tolist()):
        cell.x = mean
    multi = counts > 1
    num_multi = int(np.count_nonzero(multi))
    if not num_multi:
        return 0.0, 0.0
    max_mismatch = float(np.max(spreads[multi]))
    mean_mismatch = float(np.sum(spreads[multi])) / num_multi
    return max_mismatch, mean_mismatch
