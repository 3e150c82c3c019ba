"""Detailed placement: legality-preserving HPWL refinement.

The paper situates legalization between global placement and *detailed
placement*, "refines the placement solution" (Section 1), and its related
work [12] (MrDP) builds exactly such a refiner on top of this legalizer.
This module provides that third stage:

:class:`DetailedPlacer` runs *global move* passes: each movable cell is
attracted to the median of its connected nets' bounding boxes (the
classical optimal-region argument: HPWL as a function of one cell's
position is piecewise linear and minimized at the median of the other
pins' spans), and is relocated to the best free, rail-correct, site-aligned
position near that optimum — but only when the move strictly reduces total
HPWL.  Legality is maintained transactionally through a
:class:`~repro.rows.SiteMap`, so the output is legal whenever the input is.

Multi-row cells move too (their candidate rows are rail-filtered); fixed
cells never move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netlist.cell import CellInstance
from repro.netlist.design import Design
from repro.netlist.net import Net
from repro.rows.sitemap import SiteMap
from repro.telemetry import active_tracer


@dataclass
class DetailedPlacementResult:
    """Outcome of a refinement run."""

    hpwl_before: float
    hpwl_after: float
    moves_accepted: int
    moves_tried: int
    passes: int
    runtime: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        """Relative HPWL reduction (0.03 = 3% better)."""
        if self.hpwl_before == 0:
            return 0.0
        return (self.hpwl_before - self.hpwl_after) / self.hpwl_before

    def summary(self) -> str:
        return (
            f"detailed placement: HPWL {self.hpwl_before:.4g} -> "
            f"{self.hpwl_after:.4g} ({100 * self.improvement:.2f}% better), "
            f"{self.moves_accepted}/{self.moves_tried} moves in "
            f"{self.passes} passes"
        )


class DetailedPlacer:
    """Global-move detailed placement on a legal design.

    Parameters
    ----------
    passes:
        Number of sweeps over all cells (diminishing returns after 2-3).
    row_window:
        Candidate rows considered around the optimal row.
    site_window:
        Maximum |x| relocation in sites per move (bounds disruption and
        keeps each HPWL delta computation local).
    min_gain:
        Smallest absolute HPWL gain worth committing (filters churn).
    """

    def __init__(
        self,
        passes: int = 2,
        row_window: int = 3,
        site_window: int = 64,
        min_gain: float = 1e-9,
    ) -> None:
        self.passes = passes
        self.row_window = row_window
        self.site_window = site_window
        self.min_gain = min_gain

    # ------------------------------------------------------------------
    def refine(self, design: Design) -> DetailedPlacementResult:
        tracer = active_tracer()
        with tracer.span("detailed_placement", design=design.name) as root:
            with tracer.span("setup"):
                site_map = self._build_site_map(design)
                nets_of: Dict[int, List[Net]] = {c.id: [] for c in design.cells}
                for net in design.nets:
                    for pin in net.pins:
                        if pin.cell is not None:
                            nets_of[pin.cell.id].append(net)

            hpwl_before = design.total_hpwl()
            tried = accepted = 0
            with tracer.span("moves"):
                for _ in range(self.passes):
                    pass_accepted = 0
                    for cell in design.movable_cells:
                        if not nets_of[cell.id]:
                            continue
                        tried += 1
                        if self._try_move(cell, design, site_map, nets_of[cell.id]):
                            accepted += 1
                            pass_accepted += 1
                    if pass_accepted == 0:
                        break
        stages = root.child_seconds()
        return DetailedPlacementResult(
            hpwl_before=hpwl_before,
            hpwl_after=design.total_hpwl(),
            moves_accepted=accepted,
            moves_tried=tried,
            passes=self.passes,
            runtime=sum(stages.values()),
            stage_seconds=stages,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _build_site_map(design: Design) -> SiteMap:
        core = design.core
        site_map = SiteMap(core)
        for cell in design.cells:
            row = cell.row_index
            if row is None:
                row = core.row_of_y(cell.y)
                cell.row_index = row
            site = int(round((cell.x - core.xl) / core.site_width))
            site_map.occupy_cell(cell, row, site)
        return site_map

    def _try_move(
        self,
        cell: CellInstance,
        design: Design,
        site_map: SiteMap,
        nets: List[Net],
    ) -> bool:
        core = design.core
        opt_x, opt_y = self._optimal_position(cell, nets, design)
        base_hpwl = sum(net.hpwl() for net in nets)

        old_row = cell.row_index
        old_site = int(round((cell.x - core.xl) / core.site_width))
        old_x, old_y = cell.x, cell.y
        # Free the cell's own footprint so nearby positions are visible.
        site_map.release_cell(cell, old_row, old_site)

        best: Optional[Tuple[float, int, int]] = None  # (gain, row, site)
        home = core.row_of_y(opt_y)
        max_bottom = core.num_rows - cell.height_rows
        for d_row in range(0, self.row_window + 1):
            for row in {home - d_row, home + d_row}:
                if not 0 <= row <= max_bottom:
                    continue
                if not core.rails.row_is_correct(cell.master, row):
                    continue
                site = site_map.nearest_fit_in_row(
                    row, opt_x, cell.width, cell.height_rows
                )
                if site is None:
                    continue
                if abs(site_map.site_to_x(site) - old_x) > self.site_window * core.site_width:
                    continue
                cell.x = site_map.site_to_x(site)
                cell.y = core.row_y(row)
                gain = base_hpwl - sum(net.hpwl() for net in nets)
                if gain > self.min_gain and (best is None or gain > best[0]):
                    best = (gain, row, site)
        # Restore, then commit the best candidate (if any).
        cell.x, cell.y = old_x, old_y
        if best is None:
            site_map.occupy_cell(cell, old_row, old_site)
            return False
        _, row, site = best
        cell.x = site_map.site_to_x(site)
        cell.y = core.row_y(row)
        cell.row_index = row
        if cell.master.bottom_rail is not None and not cell.master.is_even_height:
            cell.flipped = core.rails.needs_flip(cell.master, row)
        site_map.occupy_cell(cell, row, site)
        return True

    @staticmethod
    def _optimal_position(
        cell: CellInstance, nets: List[Net], design: Design
    ) -> Tuple[float, float]:
        """Median of the other pins' bounding-box edges (optimal region)."""
        xs: List[float] = []
        ys: List[float] = []
        for net in nets:
            lo_x = lo_y = float("inf")
            hi_x = hi_y = float("-inf")
            for pin in net.pins:
                if pin.cell is cell:
                    continue
                px, py = pin.position()
                lo_x, hi_x = min(lo_x, px), max(hi_x, px)
                lo_y, hi_y = min(lo_y, py), max(hi_y, py)
            if lo_x <= hi_x:
                xs.extend((lo_x, hi_x))
                ys.extend((lo_y, hi_y))
        if not xs:
            return cell.x, cell.y
        xs.sort()
        ys.sort()
        mid = len(xs) // 2
        med_x = xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])
        med_y = ys[mid] if len(ys) % 2 else 0.5 * (ys[mid - 1] + ys[mid])
        # Optimal region targets the cell's pin; approximate with its center.
        return med_x - 0.5 * cell.width, med_y - 0.5 * cell.height(
            design.core.row_height
        )
