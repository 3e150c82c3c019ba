"""The chip core: a stack of uniform placement rows over a site grid.

:class:`CoreArea` is the geometric context of legalization: the core
rectangle, the row height, the site width, and the power-rail scheme.  All
coordinates are normalized so the core's bottom-left corner is the origin of
the row/site grid — the paper's ``x >= 0`` constraint is the left core edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.geometry import Rect, snap_nearest
from repro.netlist.cell import CellMaster, RailType
from repro.rows.power import RailScheme


class InfeasibleAssignment(ValueError):
    """No legal row exists for a cell in this core.

    Raised by :meth:`CoreArea.nearest_correct_row` when the design is
    structurally infeasible — the master is taller than the core, or it is
    an even-row-height master and no rail-matching row lies in its vertical
    fit range (e.g. a 2-row cell in a 2-row core whose single legal bottom
    row has the wrong rail).  Subclasses :class:`ValueError` so existing
    callers that caught the old unstructured error keep working.

    Attributes carry the structured context: ``master_name``,
    ``height_rows``, ``num_rows``, ``bottom_rail`` (or None), and
    ``cell_name`` once :func:`repro.core.row_assign.assign_rows` has
    attached the offending instance.
    """

    def __init__(
        self,
        master_name: str,
        height_rows: int,
        num_rows: int,
        bottom_rail=None,
        cell_name=None,
    ) -> None:
        self.master_name = master_name
        self.height_rows = height_rows
        self.num_rows = num_rows
        self.bottom_rail = bottom_rail
        self.cell_name = cell_name
        rail = f", bottom rail {bottom_rail.value}" if bottom_rail is not None else ""
        prefix = f"cell {cell_name!r}: " if cell_name is not None else ""
        super().__init__(
            f"{prefix}no legal row for master {master_name!r} "
            f"(height {height_rows} rows{rail}) in a {num_rows}-row core"
        )

    def for_cell(self, cell_name: str) -> "InfeasibleAssignment":
        """A copy of this error naming the offending cell instance."""
        return InfeasibleAssignment(
            self.master_name,
            self.height_rows,
            self.num_rows,
            bottom_rail=self.bottom_rail,
            cell_name=cell_name,
        )


@dataclass(frozen=True)
class CoreArea:
    """Core region with uniform rows.

    Parameters
    ----------
    xl, yl:
        Bottom-left corner of the core.
    num_rows:
        Number of placement rows stacked bottom-up.
    row_height:
        Height of each row in database units.
    num_sites:
        Number of placement sites per row.
    site_width:
        Width of one placement site in database units.
    rails:
        Alternating VDD/VSS scheme anchoring rail parity to row 0.
    """

    xl: float = 0.0
    yl: float = 0.0
    num_rows: int = 1
    row_height: float = 9.0
    num_sites: int = 1
    site_width: float = 1.0
    rails: RailScheme = field(default_factory=RailScheme)

    def __post_init__(self) -> None:
        if self.num_rows < 1:
            raise ValueError("core needs at least one row")
        if self.num_sites < 1:
            raise ValueError("core needs at least one site per row")
        for name in ("xl", "yl", "row_height", "site_width"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"core {name} must be finite, got {value!r}")
        if self.row_height <= 0 or self.site_width <= 0:
            raise ValueError("row_height and site_width must be positive")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def xh(self) -> float:
        return self.xl + self.num_sites * self.site_width

    @property
    def yh(self) -> float:
        return self.yl + self.num_rows * self.row_height

    @property
    def width(self) -> float:
        return self.xh - self.xl

    @property
    def height(self) -> float:
        return self.yh - self.yl

    def rect(self) -> Rect:
        return Rect(self.xl, self.yl, self.xh, self.yh)

    def row_y(self, row_index: int) -> float:
        """Bottom y coordinate of a row."""
        if not 0 <= row_index < self.num_rows:
            raise IndexError(f"row index {row_index} out of range")
        return self.yl + row_index * self.row_height

    def row_of_y(self, y: float) -> int:
        """Row index whose bottom is nearest to *y* (clamped into range)."""
        idx = round((y - self.yl) / self.row_height)
        return min(max(int(idx), 0), self.num_rows - 1)

    def site_x(self, site_index: int) -> float:
        """Left x coordinate of a site column."""
        return self.xl + site_index * self.site_width

    def snap_x(self, x: float) -> float:
        """Snap an x coordinate to the nearest site boundary (may be outside)."""
        return snap_nearest(x, self.xl, self.site_width)

    def clamp_site_x(self, x: float, cell_width: float) -> float:
        """Snap x to the site grid and clamp so the cell stays inside the core."""
        snapped = self.snap_x(x)
        lo = self.xl
        hi = self.xh - cell_width
        return min(max(snapped, lo), max(lo, hi))

    # ------------------------------------------------------------------
    # Rail-aware row legality (delegates to the scheme with core bounds)
    # ------------------------------------------------------------------
    def row_is_correct(self, master: CellMaster, row_index: int) -> bool:
        """Legal bottom row for the master, including vertical-fit bounds."""
        if row_index < 0 or row_index + master.height_rows > self.num_rows:
            return False
        return self.rails.row_is_correct(master, row_index)

    def nearest_correct_row(self, master: CellMaster, y: float) -> int:
        """Nearest legal bottom row for a cell whose GP bottom y is *y*.

        Raises :class:`InfeasibleAssignment` when no legal row exists at
        all — the cell is taller than the core, or it is even-height and no
        rail-matching row lies within its vertical fit range.
        """
        row = self.rails.nearest_correct_row(
            master, y, self.yl, self.row_height, self.num_rows
        )
        if row is None:
            raise InfeasibleAssignment(
                master.name,
                master.height_rows,
                self.num_rows,
                bottom_rail=master.bottom_rail if master.is_even_height else None,
            )
        return row

    def correct_rows(self, master: CellMaster) -> List[int]:
        """All legal bottom rows for the master, bottom-up."""
        return [
            r
            for r in range(self.num_rows - master.height_rows + 1)
            if self.rails.row_is_correct(master, r)
        ]

    def bottom_rail(self, row_index: int) -> RailType:
        return self.rails.bottom_rail(row_index)
