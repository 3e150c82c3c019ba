"""ASP-DAC'17-style mixed-cell-height legalizer (after Wang et al. [18]).

Wang et al. extend Abacus to mixed heights while *honoring the GP cell
ordering* — the insight the paper credits for high-quality legalization.
Our reimplementation (the authors' binary is unavailable; see DESIGN.md)
keeps those two pillars:

* cells are processed in global-placement x order, so relative order within
  rows is preserved;
* single-row cells are inserted by trial ``PlaceRow`` into candidate rows
  (quadratic-cost row selection, exactly Abacus);
* a multi-row cell is tried on every rail-correct bottom row: it is
  *pinned* at the first feasible x at or right of its GP x (compressing
  committed predecessors leftward where needed, the compression charged to
  the row-selection cost), and the pin becomes an immovable *wall* in each
  spanned row, which later insertions collapse against;
* a final row-local PlaceRow refinement
  (:func:`repro.baselines.refine.placerow_refine`) re-optimizes single-row
  cells between the committed walls — modelling Wang et al.'s remediation
  of Abacus's insufficiencies with the row-optimal shifting their
  algorithm performs during insertion.

This is a sequential, one-cell-at-a-time method: better than greedy Tetris
and local-region legalization (it shifts whole clusters optimally), but
without the MMSIM's global view — matching its middle position in Table 2.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.baselines.common import BaselineResult, finish_result
from repro.baselines.refine import placerow_refine
from repro.core.tetris_fix import tetris_allocate
from repro.baselines.placerow import RowPlacer, quadratic_cost
from repro.geometry import snap_up
from repro.netlist.cell import CellInstance
from repro.netlist.design import Design
from repro.telemetry import active_tracer


class WangLegalizer:
    """Order-preserving Abacus extension for mixed cell heights."""

    name = "wang"

    def __init__(self, row_search_range: int = 64) -> None:
        self.row_search_range = row_search_range

    def legalize(self, design: Design) -> BaselineResult:
        tracer = active_tracer()
        core = design.core
        with tracer.span(
            "legalize", design=design.name, algorithm=self.name
        ) as root:
            with tracer.span("wang"):
                placers: Dict[int, RowPlacer] = {
                    r: RowPlacer(core.xl, core.xh) for r in range(core.num_rows)
                }
                cells = sorted(design.movable_cells, key=lambda c: (c.gp_x, c.id))
                failed = 0
                for cell in cells:
                    if cell.height_rows == 1:
                        ok = self._commit_single(cell, core, placers)
                    else:
                        ok = self._commit_multi(cell, core, placers)
                    if not ok:
                        failed += 1

                for placer in placers.values():
                    placer.snap_to_sites(core.xl, core.site_width)
                for row, placer in placers.items():
                    for cid, x in placer.positions():
                        cell = design.cells[cid]
                        if cell.row_index == row:  # walls appear in several rows
                            cell.x = x

            unplaced = 0
            has_fixed = any(cell.fixed for cell in design.cells)
            if has_fixed:
                # The sequential placers are obstacle-blind; re-commit through
                # the obstacle-aware allocation, which re-places any cell that
                # landed on a fixed footprint.
                with tracer.span("obstacle_repair"):
                    stats = tetris_allocate(design)
                    unplaced = stats.num_unplaced
            if failed:
                # Rare dense-row fallback: re-place stranded cells at the
                # nearest free footprint of the otherwise-final placement.
                with tracer.span("repair"):
                    for cell in design.movable_cells:
                        if cell.row_index is None:
                            cell.x = cell.gp_x
                            cell.row_index = core.nearest_correct_row(
                                cell.master, cell.gp_y
                            )
                            cell.y = core.row_y(cell.row_index)
                    stats = tetris_allocate(design)
                    unplaced = stats.num_unplaced

            if unplaced == 0:
                # Refinement assumes a legal layout; skip it when the repair
                # could not restore one (the failure is reported instead).
                with tracer.span("refine"):
                    placerow_refine(design)
        stages = root.child_seconds()
        return finish_result(
            design, self.name, sum(stages.values()), num_failed=unplaced,
            stage_seconds=stages,
        )

    # ------------------------------------------------------------------
    def _commit_single(
        self, cell: CellInstance, core, placers: Dict[int, RowPlacer]
    ) -> bool:
        ideal = core.nearest_correct_row(cell.master, cell.gp_y)
        best: Optional[Tuple[float, int]] = None
        for offset in range(self.row_search_range + 1):
            progressed = False
            for row in {ideal - offset, ideal + offset}:
                if not 0 <= row < core.num_rows:
                    continue
                progressed = True
                dy = core.row_y(row) - cell.gp_y
                if best is not None and dy * dy >= best[0]:
                    continue
                placer = placers[row]
                if placer.used_width + cell.width > core.width + 1e-9:
                    continue
                x = placer.trial_append(cell.gp_x, cell.width)
                if x is None:
                    continue
                cost = quadratic_cost(x - cell.gp_x, dy)
                if best is None or cost < best[0]:
                    best = (cost, row)
            if not progressed and best is not None:
                break
            dy_next = (offset + 1) * core.row_height - abs(
                cell.gp_y - core.row_y(min(max(ideal, 0), core.num_rows - 1))
            )
            if best is not None and dy_next > 0 and dy_next * dy_next >= best[0]:
                break
        if best is None:
            return False
        _, row = best
        placers[row].append(cell.id, cell.gp_x, cell.width)
        cell.row_index = row
        cell.y = core.row_y(row)
        cell.flipped = (
            cell.master.bottom_rail is not None
            and not cell.master.is_even_height
            and core.rails.needs_flip(cell.master, row)
        )
        return True

    def _commit_multi(
        self, cell: CellInstance, core, placers: Dict[int, RowPlacer]
    ) -> bool:
        master = cell.master
        h = master.height_rows
        candidates = [
            r
            for r in range(core.num_rows - h + 1)
            if core.rails.row_is_correct(master, r)
        ]
        best: Optional[Tuple[float, int, float]] = None
        for row in candidates:
            spanned = range(row, row + h)
            x_min = max(placers[r].packed_frontier for r in spanned)
            x = snap_up(max(cell.gp_x, x_min), core.xl, core.site_width)
            if x + cell.width > core.xh + 1e-9:
                continue
            dy = core.row_y(row) - cell.gp_y
            # Pinning below a row's frontier compresses that row's cells
            # leftward; charge the compression as displacement cost.
            push = sum(max(0.0, placers[r].frontier() - x) for r in spanned)
            cost = quadratic_cost(x - cell.gp_x, dy) + push * push
            if best is None or cost < best[0]:
                best = (cost, row, x)
        if best is None:
            return False
        _, row, x = best
        for r in range(row, row + h):
            placers[r].append_pinned(cell.id, x, cell.width)
        cell.row_index = row
        cell.x = x
        cell.y = core.row_y(row)
        return True
