"""Power-rail scheme of a standard-cell row structure.

In a standard-cell design, VDD and VSS rails alternate between rows: every
row boundary carries one rail, shared by the row below and the row above.
A :class:`RailScheme` answers, for any row index, which rail type lies at
the row's bottom (and top) boundary, and whether a cell of a given height
and bottom-rail type may legally sit with its bottom on that row.

The rules implemented here follow Section 1 / Figure 1 of the paper:

* Odd-row-height cells (1, 3, ... rows) can be placed on *any* row — if the
  rails do not line up directly, a vertical flip fixes them, because an
  odd-height cell's top and bottom boundaries carry *different* rail types.
* Even-row-height cells (2, 4, ... rows) have the *same* rail type on both
  boundaries, so flipping cannot help: the row's bottom rail must equal the
  cell's designed bottom rail, which restricts the cell to every other row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netlist.cell import CellMaster, RailType


@dataclass(frozen=True)
class RailScheme:
    """Alternating VDD/VSS rails; ``bottom_rail_of_row_0`` anchors the parity."""

    bottom_rail_of_row_0: RailType = RailType.VSS

    def bottom_rail(self, row_index: int) -> RailType:
        """Rail type at the bottom boundary of *row_index*."""
        if row_index % 2 == 0:
            return self.bottom_rail_of_row_0
        return self.bottom_rail_of_row_0.opposite()

    def top_rail(self, row_index: int) -> RailType:
        """Rail type at the top boundary of *row_index* (== bottom of next)."""
        return self.bottom_rail(row_index + 1)

    # ------------------------------------------------------------------
    # Placement legality
    # ------------------------------------------------------------------
    def row_is_correct(self, master: CellMaster, row_index: int) -> bool:
        """May a cell of this master sit with its bottom on *row_index*?

        Odd-height masters: always (vertical flipping resolves mismatch).
        Even-height masters: only when the row's bottom rail matches the
        master's designed bottom rail.
        """
        if not master.is_even_height:
            return True
        return self.bottom_rail(row_index) == master.bottom_rail

    def needs_flip(self, master: CellMaster, row_index: int) -> bool:
        """Whether an odd-height cell must be flipped to match the rails.

        A master with no declared ``bottom_rail`` is rail-agnostic and never
        needs flipping.  Raises for even-height masters on incorrect rows —
        those cannot be fixed by flipping.
        """
        if master.bottom_rail is None:
            return False
        if master.is_even_height:
            if not self.row_is_correct(master, row_index):
                raise ValueError(
                    f"even-height master {master.name!r} cannot be placed on "
                    f"row {row_index}: rail mismatch is not fixable by flipping"
                )
            return False
        return self.bottom_rail(row_index) != master.bottom_rail

    def nearest_correct_row(
        self,
        master: CellMaster,
        y: float,
        row_y0: float,
        row_height: float,
        num_rows: int,
    ) -> Optional[int]:
        """Nearest row index (by |y - row_y|) legal for *master*.

        The cell must also fit vertically: a cell of height ``h`` rows can
        occupy bottom rows ``0 .. num_rows - h``.  Returns None when the
        design has no legal row at all (e.g., height taller than the core).
        """
        max_bottom = num_rows - master.height_rows
        if max_bottom < 0:
            return None
        # Real-valued nearest row, then clamp and search outward.
        ideal = round((y - row_y0) / row_height)
        ideal = min(max(ideal, 0), max_bottom)
        if self.row_is_correct(master, ideal):
            return ideal
        # Alternate rows outward from the ideal one.
        for step in range(1, max_bottom + 2):
            for cand in (ideal - step, ideal + step):
                if 0 <= cand <= max_bottom and self.row_is_correct(master, cand):
                    # Among the two candidates at this step, prefer the one
                    # truly nearest in y (they are equidistant in index but
                    # the real y may break the tie).
                    other = ideal + step if cand == ideal - step else ideal - step
                    if (
                        0 <= other <= max_bottom
                        and self.row_is_correct(master, other)
                    ):
                        y_cand = row_y0 + cand * row_height
                        y_other = row_y0 + other * row_height
                        if abs(y_other - y) < abs(y_cand - y):
                            return other
                    return cand
        return None

    def rail_parity(self, master: CellMaster) -> int:
        """Parity of the rows whose bottom rail is *master*'s bottom rail.

        ``row % 2 == rail_parity(master)`` exactly when the row's bottom
        rail matches — the legal rows of an even-height master, and the
        rows an odd-height master sits on unflipped.  ``-1`` for a master
        with no declared bottom rail.
        """
        if master.bottom_rail is None:
            return -1
        return 0 if master.bottom_rail == self.bottom_rail_of_row_0 else 1

    def nearest_correct_rows(
        self,
        height_rows: np.ndarray,
        parity: np.ndarray,
        y: np.ndarray,
        row_y0: float,
        row_height: float,
        num_rows: int,
    ) -> np.ndarray:
        """Array form of :meth:`nearest_correct_row`; ``-1`` where it
        returns None.

        ``parity`` holds each cell's :meth:`rail_parity`.  Same arithmetic
        as the scalar rule: the ideal row rounds half to even and is
        clamped into the fit range.  An even-height cell on a wrong-rail
        ideal row moves one row down or up, whichever is nearer in real
        y, ties going down; when neither exists (a one-row fit range) it
        has no legal row.  Expects finite *y*.
        """
        max_bottom = num_rows - height_rows
        ideal = np.rint((y - row_y0) / row_height)
        row = np.clip(ideal, 0, np.maximum(max_bottom, 0)).astype(np.int64)
        wrong = ((height_rows % 2) == 0) & ((row % 2) != parity)
        down, up = row - 1, row + 1
        has_down, has_up = down >= 0, up <= max_bottom
        up_nearer = np.abs((row_y0 + up * row_height) - y) < np.abs(
            (row_y0 + down * row_height) - y
        )
        step = np.where(has_down & ~(has_up & up_nearer), down, up)
        row = np.where(wrong, step, row)
        row[(max_bottom < 0) | (wrong & ~has_down & ~has_up)] = -1
        return row
