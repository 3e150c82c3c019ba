"""The design database: core area + cells + nets.

:class:`Design` is the single object every stage of the flow consumes and
produces.  It owns the cell instances (whose ``(x, y)`` the legalizer
mutates), the netlist for wirelength evaluation, and the core-area/rail
context.  Convenience constructors and snapshot/restore support make it easy
to run several legalizers on identical inputs — exactly what the paper's
Table 2 comparison needs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.cell import CellInstance, CellMaster, RailType
from repro.netlist.net import Net, Pin
from repro.rows.core_area import CoreArea


@dataclass(frozen=True)
class FenceRegion:
    """A fence region: a rectilinear area with an exclusive member set.

    ``rects`` is the region as a union of axis-aligned rectangles
    ``(xl, yl, xh, yh)`` in database units; ``members`` names the cells
    bound to the fence.  Semantics are the ISPD exclusive kind:

    * every *member* must be placed with its footprint inside the union
      of the fence's rects;
    * every *movable non-member* must be placed with its footprint
      outside every rect of every fence;
    * *fixed* cells are exempt from both (macros/obstacles may straddle
      a fence boundary — they are inputs, not placements).

    Membership is stored by cell *name*, not id: design transforms
    (shrinking, slicing, re-serialization) renumber ids but preserve
    names.  Use :meth:`Design.fence_index_by_cell_id` for id-level
    resolution.
    """

    name: str
    rects: Tuple[Tuple[float, float, float, float], ...]
    members: FrozenSet[str]

    def __post_init__(self) -> None:
        if not self.rects:
            raise ValueError(f"fence {self.name!r} has no rects")
        for rect in self.rects:
            if len(rect) != 4:
                raise ValueError(
                    f"fence {self.name!r}: rect {rect!r} is not (xl, yl, xh, yh)"
                )
            xl, yl, xh, yh = rect
            if not (xh > xl and yh > yl):
                raise ValueError(
                    f"fence {self.name!r}: rect {rect!r} has non-positive extent"
                )

    def contains(self, x_lo: float, y_lo: float, x_hi: float, y_hi: float,
                 tol: float = 0.0) -> bool:
        """True when the footprint lies inside the union of rects.

        The union is checked per horizontal strip: a rect only counts
        toward covering a strip it fully spans vertically, so an
        L-shaped union of two rects is handled exactly.
        """
        cuts = sorted({y_lo, y_hi, *(
            y for rect in self.rects for y in (rect[1], rect[3])
            if y_lo < y < y_hi
        )})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            covered = _merged_spans([
                (rect[0], rect[2]) for rect in self.rects
                if rect[1] <= lo + tol and rect[3] >= hi - tol
            ])
            if not any(s <= x_lo + tol and e >= x_hi - tol for s, e in covered):
                return False
        return True

    def overlaps(self, x_lo: float, y_lo: float, x_hi: float, y_hi: float,
                 tol: float = 0.0) -> bool:
        """True when the footprint intersects any rect's interior."""
        return any(
            x_lo < rect[2] - tol and x_hi > rect[0] + tol
            and y_lo < rect[3] - tol and y_hi > rect[1] + tol
            for rect in self.rects
        )

    def row_spans(self, core: CoreArea, row: int) -> List[Tuple[float, float]]:
        """Merged x-spans of rects fully covering row *row* (db units)."""
        y_lo = core.row_y(row)
        y_hi = y_lo + core.row_height
        eps = 1e-9 * max(core.row_height, 1.0)
        return _merged_spans([
            (rect[0], rect[2]) for rect in self.rects
            if rect[1] <= y_lo + eps and rect[3] >= y_hi - eps
        ])

    def row_overlap_spans(
        self, core: CoreArea, row: int
    ) -> List[Tuple[float, float]]:
        """Merged x-spans of rects intersecting row *row* at all.

        The conservative counterpart of :meth:`row_spans`: a rect
        covering only part of a row vertically still excludes movable
        non-members from that x-range.
        """
        y_lo = core.row_y(row)
        y_hi = y_lo + core.row_height
        eps = 1e-9 * max(core.row_height, 1.0)
        return _merged_spans([
            (rect[0], rect[2]) for rect in self.rects
            if rect[1] < y_hi - eps and rect[3] > y_lo + eps
        ])


def _merged_spans(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping 1-D spans into a sorted disjoint list."""
    out: List[Tuple[float, float]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


@dataclass
class Design:
    """A placement instance.

    Attributes
    ----------
    name:
        Benchmark/design name.
    core:
        Core area (rows, sites, rails).
    cells:
        Movable and fixed cell instances, indexed by ``cell.id`` which is
        the position in this list.
    nets:
        Netlist used only for HPWL metrics.
    masters:
        Library of masters, by name.
    """

    name: str
    core: CoreArea
    cells: List[CellInstance] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)
    masters: Dict[str, CellMaster] = field(default_factory=dict)
    #: Fence regions (exclusive member semantics); empty for most designs.
    fences: List[FenceRegion] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_master(self, master: CellMaster) -> CellMaster:
        if master.name in self.masters:
            existing = self.masters[master.name]
            if existing != master:
                raise ValueError(f"conflicting master definition for {master.name!r}")
            return existing
        self.masters[master.name] = master
        return master

    def add_cell(
        self,
        name: str,
        master: CellMaster,
        gp_x: float,
        gp_y: float,
        fixed: bool = False,
    ) -> CellInstance:
        """Create a cell instance at a global-placement position."""
        if self.masters.get(master.name) is not master:
            self.add_master(master)
        # Positional: decoders add thousands of cells per design.
        cell = CellInstance(
            len(self.cells), name, master, gp_x, gp_y, gp_x, gp_y, fixed
        )
        self.cells.append(cell)
        return cell

    def add_net(self, name: str, pins: Iterable[Pin] = ()) -> Net:
        net = Net(id=len(self.nets), name=name, pins=list(pins))
        self.nets.append(net)
        return net

    def cell_by_name(self, name: str) -> CellInstance:
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise KeyError(f"no cell named {name!r}")

    # ------------------------------------------------------------------
    # Fence regions
    # ------------------------------------------------------------------
    def add_fence(
        self,
        name: str,
        rects: Iterable[Tuple[float, float, float, float]],
        members: Iterable[str],
    ) -> FenceRegion:
        """Register a fence region (rect/name structure checked eagerly;
        membership is resolved lazily — see :meth:`validate_fences`)."""
        if any(f.name == name for f in self.fences):
            raise ValueError(f"duplicate fence name {name!r}")
        fence = FenceRegion(
            name=name,
            rects=tuple(tuple(float(v) for v in rect) for rect in rects),
            members=frozenset(members),
        )
        self.fences.append(fence)
        return fence

    def validate_fences(self) -> None:
        """Raise ``ValueError`` on unresolvable or conflicting fences.

        Every member must name an existing *movable* cell, and no cell
        may belong to more than one fence (exclusive semantics).
        """
        if not self.fences:
            return
        by_name = {cell.name: cell for cell in self.cells}
        owner: Dict[str, str] = {}
        for fence in self.fences:
            for member in fence.members:
                cell = by_name.get(member)
                if cell is None:
                    raise ValueError(
                        f"fence {fence.name!r} member {member!r} names no cell"
                    )
                if cell.fixed:
                    raise ValueError(
                        f"fence {fence.name!r} member {member!r} is a fixed "
                        "cell; fixed cells cannot be fenced"
                    )
                if member in owner:
                    raise ValueError(
                        f"cell {member!r} belongs to both fence "
                        f"{owner[member]!r} and fence {fence.name!r}"
                    )
                owner[member] = fence.name

    def validate_coordinates(self) -> None:
        """Raise ``ValueError`` naming the first cell, and the field, whose
        coordinate is NaN or infinite.

        Checked are the coordinates the flow reads: ``gp_x``/``gp_y`` of
        every cell and ``x``/``y`` of fixed cells (obstacles stay put).  A
        non-finite value would otherwise run the whole solve and fail far
        downstream without naming anything.
        """
        cells = self.cells
        n = len(cells)
        fixed = [c for c in cells if c.fixed]
        if (
            np.isfinite(np.fromiter((c.gp_x for c in cells), float, n)).all()
            and np.isfinite(np.fromiter((c.gp_y for c in cells), float, n)).all()
            and all(math.isfinite(c.x) and math.isfinite(c.y) for c in fixed)
        ):
            return
        for cell in cells:
            for name in ("gp_x", "gp_y", "x", "y") if cell.fixed else ("gp_x", "gp_y"):
                value = getattr(cell, name)
                if not math.isfinite(value):
                    raise ValueError(
                        f"cell {cell.name!r}: {name} is not finite ({value!r})"
                    )

    def fence_index_by_cell_id(self) -> Dict[int, int]:
        """Map cell id -> index into :attr:`fences` (members only).

        Cells absent from the map are unfenced; with exclusive
        semantics that means "must avoid every fence" for movable
        cells and "no constraint" for fixed ones.
        """
        index: Dict[int, int] = {}
        if not self.fences:
            return index
        membership = {
            member: gi
            for gi, fence in enumerate(self.fences)
            for member in fence.members
        }
        for cell in self.cells:
            gi = membership.get(cell.name)
            if gi is not None:
                index[cell.id] = gi
        return index

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def movable_cells(self) -> List[CellInstance]:
        return [c for c in self.cells if not c.fixed]

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def count_by_height(self) -> Dict[int, int]:
        """Histogram of movable-cell heights in rows (Table 1's #S/#D columns)."""
        hist: Dict[int, int] = {}
        for cell in self.movable_cells:
            hist[cell.height_rows] = hist.get(cell.height_rows, 0) + 1
        return hist

    def total_cell_area(self) -> float:
        return sum(
            c.width * c.height(self.core.row_height) for c in self.movable_cells
        )

    def density(self) -> float:
        """Placement density: movable cell area over core area."""
        core_area = self.core.width * self.core.height
        if core_area <= 0:
            return 0.0
        return self.total_cell_area() / core_area

    # ------------------------------------------------------------------
    # Position snapshots (for running several legalizers on one input)
    # ------------------------------------------------------------------
    def snapshot_positions(self) -> List[Tuple[float, float, bool, Optional[int]]]:
        """Capture every cell's (x, y, flipped, row_index)."""
        return [(c.x, c.y, c.flipped, c.row_index) for c in self.cells]

    def restore_positions(
        self, snapshot: Sequence[Tuple[float, float, bool, Optional[int]]]
    ) -> None:
        if len(snapshot) != len(self.cells):
            raise ValueError("snapshot size does not match cell count")
        for cell, (x, y, flipped, row) in zip(self.cells, snapshot):
            cell.x = x
            cell.y = y
            cell.flipped = flipped
            cell.row_index = row

    def reset_to_gp(self) -> None:
        """Reset every movable cell to its global-placement position."""
        for cell in self.movable_cells:
            cell.reset_to_gp()

    def clone(self) -> "Design":
        """Deep copy (cells, nets, and pin back-references all remapped)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # Metrics shortcuts (full metrics live in repro.metrics)
    # ------------------------------------------------------------------
    def total_hpwl(self) -> float:
        return sum(net.hpwl() for net in self.nets)

    def gp_hpwl(self) -> float:
        return sum(net.gp_hpwl() for net in self.nets)

    def total_displacement(self) -> float:
        """Total Manhattan displacement in database units."""
        return sum(c.displacement() for c in self.movable_cells)

    def total_displacement_sites(self) -> float:
        """Total Manhattan displacement in site widths (Table 2's unit)."""
        return self.total_displacement() / self.core.site_width
