"""Standard-cell masters and instances.

A :class:`CellMaster` is a library cell: a width, a height expressed in row
heights, and — for even-row-height masters — the power-rail type its bottom
boundary was designed against (Figure 1 of the paper).  A
:class:`CellInstance` is a placed occurrence of a master: it carries the
global-placement coordinate ``(gp_x, gp_y)`` that legalization tries to
honor and the current (legalized) coordinate ``(x, y)``.

Coordinates always refer to the *bottom-left corner* of the cell, matching
the paper's problem statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.geometry import Rect


class RailType(Enum):
    """Power-rail type of a horizontal rail line (VDD or VSS)."""

    VDD = "VDD"
    VSS = "VSS"

    def opposite(self) -> "RailType":
        return RailType.VSS if self is RailType.VDD else RailType.VDD


@dataclass(frozen=True)
class CellMaster:
    """A library cell definition.

    Parameters
    ----------
    name:
        Library name, e.g. ``"NAND2_X1"`` or ``"DFF_2H"``.
    width:
        Cell width in database units (a multiple of the site width for
        legal placements).
    height_rows:
        Cell height counted in row heights (1 = single-row, 2 = double-row,
        ...).  The physical height is ``height_rows * row_height``.
    bottom_rail:
        For even-row-height masters: the rail type the cell's bottom
        boundary is designed for.  Even-height cells cannot be fixed by
        vertical flipping (both their boundaries carry the same rail type),
        so this constrains the set of legal rows.  Odd-height masters can
        leave it as None (any row works, flipping if needed).
    """

    name: str
    width: float
    height_rows: int
    bottom_rail: Optional[RailType] = None

    def __post_init__(self) -> None:
        if not 0 < self.width < math.inf:
            raise ValueError(
                f"master {self.name!r}: width must be positive and finite, "
                f"got {self.width!r}"
            )
        if self.height_rows < 1:
            raise ValueError(f"master {self.name!r}: height_rows must be >= 1")
        if self.height_rows % 2 == 0 and self.bottom_rail is None:
            raise ValueError(
                f"master {self.name!r}: even-row-height masters need a bottom_rail"
            )

    @property
    def is_multi_row(self) -> bool:
        return self.height_rows > 1

    @property
    def is_even_height(self) -> bool:
        """Even-row-height masters are the rail-constrained ones."""
        return self.height_rows % 2 == 0


@dataclass
class CellInstance:
    """A placed occurrence of a :class:`CellMaster`.

    ``(gp_x, gp_y)`` is the (possibly overlapping) global-placement input;
    ``(x, y)`` is the working/legalized coordinate, initialized to the GP
    position.  ``flipped`` records whether the legalizer applied a vertical
    flip to match power rails (only meaningful for odd-height cells).
    """

    id: int
    name: str
    master: CellMaster
    gp_x: float = 0.0
    gp_y: float = 0.0
    x: float = 0.0
    y: float = 0.0
    fixed: bool = False
    flipped: bool = False
    row_index: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        # Working position starts at the GP position unless set explicitly.
        if self.x == 0.0 and self.y == 0.0 and (self.gp_x != 0.0 or self.gp_y != 0.0):
            self.x = self.gp_x
            self.y = self.gp_y

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.master.width

    @property
    def height_rows(self) -> int:
        return self.master.height_rows

    def height(self, row_height: float) -> float:
        return self.master.height_rows * row_height

    def rect(self, row_height: float) -> Rect:
        """Current bounding rectangle."""
        return Rect(self.x, self.y, self.x + self.width, self.y + self.height(row_height))

    def gp_rect(self, row_height: float) -> Rect:
        """Bounding rectangle at the global-placement position."""
        return Rect(
            self.gp_x,
            self.gp_y,
            self.gp_x + self.width,
            self.gp_y + self.height(row_height),
        )

    # ------------------------------------------------------------------
    # Displacement bookkeeping
    # ------------------------------------------------------------------
    def displacement(self) -> float:
        """Manhattan displacement from the GP position."""
        return abs(self.x - self.gp_x) + abs(self.y - self.gp_y)

    def displacement_sq(self) -> float:
        """Squared Euclidean displacement (the QP objective contribution)."""
        dx = self.x - self.gp_x
        dy = self.y - self.gp_y
        return dx * dx + dy * dy

    def reset_to_gp(self) -> None:
        """Move the working position back to the global-placement position."""
        self.x = self.gp_x
        self.y = self.gp_y
        self.flipped = False
        self.row_index = None
