"""Tetris legalization (Hill, US patent 6,370,673).

The classic greedy legalizer: process cells in ascending x, and give each
cell the row that minimizes its displacement when pushed against that row's
*frontier* (the right edge of everything already placed there).  Like the
falling blocks of its namesake, cells only ever stack against the frontier
— freed gaps are never revisited — which is why Tetris is fast but
displacement-hungry, the weakest baseline here.

Mixed heights are handled naturally: a multi-row cell presses against the
max frontier of all its spanned rows (rail-correct bottom rows only) and
advances all of them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.common import BaselineResult, finish_result
from repro.geometry import snap_up
from repro.netlist.cell import CellInstance
from repro.netlist.design import Design
from repro.telemetry import active_tracer


class TetrisLegalizer:
    """Classic frontier-stacking legalization in global x order."""

    name = "tetris"

    def __init__(self, row_search_range: int = 96) -> None:
        self.row_search_range = row_search_range

    def legalize(self, design: Design) -> BaselineResult:
        tracer = active_tracer()
        core = design.core
        with tracer.span(
            "legalize", design=design.name, algorithm=self.name
        ) as root, tracer.span("tetris"):
            frontiers: List[float] = [core.xl] * core.num_rows
            # Fixed cells pre-advance the frontier of the rows they block.
            for cell in design.cells:
                if not cell.fixed:
                    continue
                row = core.row_of_y(cell.y)
                end = cell.x + cell.width
                for r in range(row, min(row + cell.height_rows, core.num_rows)):
                    frontiers[r] = max(frontiers[r], end)

            cells = sorted(design.movable_cells, key=lambda c: (c.gp_x, c.id))
            stranded = []
            for cell in cells:
                if not self._drop(cell, core, frontiers):
                    stranded.append(cell)
            failed = self._repair(design, stranded) if stranded else 0
        stages = root.child_seconds()
        return finish_result(
            design, self.name, sum(stages.values()), num_failed=failed,
            stage_seconds=stages,
        )

    # ------------------------------------------------------------------
    def _drop(self, cell: CellInstance, core, frontiers: List[float]) -> bool:
        h = cell.height_rows
        ideal = core.nearest_correct_row(cell.master, cell.gp_y)
        best: Optional[Tuple[float, int, float]] = None
        max_bottom = core.num_rows - h
        for offset in range(self.row_search_range + 1):
            candidates = {ideal - offset, ideal + offset}
            any_valid = False
            for row in candidates:
                if not 0 <= row <= max_bottom:
                    continue
                if not core.rails.row_is_correct(cell.master, row):
                    continue
                any_valid = True
                dy = abs(core.row_y(row) - cell.gp_y)
                if best is not None and dy >= best[0]:
                    continue
                frontier = max(frontiers[row : row + h])
                x = snap_up(max(cell.gp_x, frontier), core.xl, core.site_width)
                if x + cell.width > core.xh + 1e-9:
                    continue
                cost = abs(x - cell.gp_x) + dy
                if best is None or cost < best[0]:
                    best = (cost, row, x)
            if best is not None and offset * core.row_height > best[0]:
                break
            if not any_valid and offset > max(core.num_rows, self.row_search_range):
                break
            if offset >= self.row_search_range:
                break
        if best is None:
            return False
        _, row, x = best
        cell.x = x
        cell.y = core.row_y(row)
        cell.row_index = row
        cell.flipped = (
            cell.master.bottom_rail is not None
            and not cell.master.is_even_height
            and core.rails.needs_flip(cell.master, row)
        )
        for r in range(row, row + h):
            frontiers[r] = x + cell.width
        return True

    @staticmethod
    def _repair(design: Design, stranded: List[CellInstance]) -> int:
        """Frontier stacking can strand cells on dense designs (it never
        backfills).  Re-place stranded cells at the nearest genuinely free
        footprint so the algorithm stays total; returns the count that
        still could not be placed (core physically full)."""
        from repro.core.tetris_fix import TetrisFixStats, place_at_nearest_free
        from repro.rows.sitemap import SiteMap

        core = design.core
        site_map = SiteMap(core)
        stranded_ids = {c.id for c in stranded}
        for cell in design.cells:
            if cell.id in stranded_ids and not cell.fixed:
                continue
            row = cell.row_index
            if row is None:
                row = core.row_of_y(cell.y)
            site = int(round((cell.x - core.xl) / core.site_width))
            site_map.occupy_cell(cell, row, site)
        from repro.core.compaction import compact_rows_and_place, evict_and_place

        failed = 0
        stats = TetrisFixStats(num_cells=len(stranded))
        pending = set(stranded_ids)
        for cell in stranded:
            pending.discard(cell.id)
            cell.x = cell.gp_x
            cell.row_index = core.nearest_correct_row(cell.master, cell.gp_y)
            cell.y = core.row_y(cell.row_index)
            if place_at_nearest_free(cell, design, site_map, stats):
                continue
            # Free space exists but is fragmented: compact a row span.
            if compact_rows_and_place(design, site_map, cell, ignore=pending):
                continue
            if not evict_and_place(design, site_map, cell, ignore=pending):
                failed += 1
        return failed
