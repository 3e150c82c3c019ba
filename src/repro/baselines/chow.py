"""DAC'16-style multi-row-height legalizer (after Chow, Pui, Young [7]).

The published method places each cell, one at a time, at the nearest
site-aligned and power-rail-matched position; when that spot is occupied it
picks a *local region* that can accommodate the cell and legalizes inside
that region only, shifting the cells already there.  The paper under
reproduction characterizes it as fast but quality-limited "because the
selection of the region and legalization tend to be local".

Our reimplementation (binary unavailable; see DESIGN.md) keeps that
structure:

1. try the snapped, rail-correct home position;
2. on conflict, try *insertion with push*: open a gap at the target by
   shifting single-height neighbours left/right within the row (cascading,
   bounded by the local region's push caps — multi-row and fixed cells act
   as barriers and are never moved), over candidate rows within
   ``region_rows`` of home; the cheapest feasible plan (own displacement
   plus neighbour shifts) wins;
3. as a last resort, fall back to the nearest globally free footprint.

``improved=True`` models the authors' post-conference binary ("DAC'16-Imp"
in Table 2) with larger region caps — measurably better displacement,
still a greedy, locally-scoped method.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines.common import BaselineResult, finish_result
from repro.core.tetris_fix import TetrisFixStats, place_at_nearest_free
from repro.netlist.cell import CellInstance
from repro.netlist.design import Design
from repro.rows.sitemap import SiteMap
from repro.telemetry import active_tracer


@dataclass
class _Placed:
    """One committed occupant of a row (site units)."""

    site: int
    n_sites: int
    cell: CellInstance
    movable: bool  # single-height movable cells can be pushed

    @property
    def end(self) -> int:
        return self.site + self.n_sites


class ChowLegalizer:
    """Greedy local-region legalization for mixed cell heights."""

    def __init__(
        self,
        improved: bool = False,
        region_rows: Optional[int] = None,
        region_sites: Optional[int] = None,
        push_limit_sites: Optional[int] = None,
    ) -> None:
        self.improved = improved
        self.region_rows = region_rows if region_rows is not None else (2 if improved else 1)
        self.region_sites = region_sites if region_sites is not None else (120 if improved else 60)
        self.push_limit = push_limit_sites if push_limit_sites is not None else 24
        self.name = "chow_imp" if improved else "chow"

    # ------------------------------------------------------------------
    def legalize(self, design: Design) -> BaselineResult:
        tracer = active_tracer()
        core = design.core
        with tracer.span(
            "legalize", design=design.name, algorithm=self.name
        ) as root, tracer.span("greedy"):
            self._site_map = SiteMap(core)
            self._rows: List[List[_Placed]] = [[] for _ in range(core.num_rows)]
            for cell in design.cells:
                if cell.fixed:
                    row = core.row_of_y(cell.y)
                    site = int(round((cell.x - core.xl) / core.site_width))
                    self._site_map.occupy_cell(cell, row, site)
                    self._insert_record(cell, row, site, movable=False)

            cells = sorted(design.movable_cells, key=lambda c: (c.gp_x, c.id))
            failed = 0
            for cell in cells:
                if not self._place(cell, design):
                    failed += 1

        stages = root.child_seconds()
        return finish_result(
            design, self.name, sum(stages.values()), num_failed=failed,
            stage_seconds=stages,
        )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _insert_record(self, cell: CellInstance, row: int, site: int, movable: bool) -> None:
        n = self._site_map.sites_of_width(cell.width)
        rec = _Placed(
            site=site,
            n_sites=n,
            cell=cell,
            movable=movable and cell.height_rows == 1,
        )
        for r in range(row, row + cell.height_rows):
            lst = self._rows[r]
            keys = [p.site for p in lst]
            lst.insert(bisect.bisect_left(keys, site), rec)

    def _commit(self, cell: CellInstance, core, row: int, site: int) -> None:
        cell.row_index = row
        cell.x = core.xl + site * core.site_width
        cell.y = core.row_y(row)
        cell.flipped = (
            cell.master.bottom_rail is not None
            and not cell.master.is_even_height
            and core.rails.needs_flip(cell.master, row)
        )
        self._site_map.occupy_cell(cell, row, site)
        self._insert_record(cell, row, site, movable=True)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, cell: CellInstance, design: Design) -> bool:
        core = design.core
        home_row = core.nearest_correct_row(cell.master, cell.gp_y)
        snapped = core.clamp_site_x(cell.gp_x, cell.width)
        site = int(round((snapped - core.xl) / core.site_width))
        n_sites = self._site_map.sites_of_width(cell.width)

        # 1. Nearest aligned, rail-matched position.
        if self._site_map.footprint_free(home_row, site, n_sites, cell.height_rows):
            self._commit(cell, core, home_row, site)
            return True

        # 2. Local region search.
        found = self._search_region(cell, core, home_row, site, n_sites)
        if found is not None:
            kind, row, new_site, moves = found
            if kind == "push":
                self._apply_plan(cell, core, (row, new_site, moves))
            else:
                self._commit(cell, core, row, new_site)
            return True

        # 3. Fallback: nearest globally free footprint.
        cell.row_index = home_row
        cell.x = snapped
        cell.y = core.row_y(home_row)
        stats = TetrisFixStats(num_cells=1)
        if not place_at_nearest_free(cell, design, self._site_map, stats):
            from repro.core.compaction import compact_rows_and_place, evict_and_place

            if not compact_rows_and_place(design, self._site_map, cell):
                if not evict_and_place(design, self._site_map, cell):
                    # Leave no phantom commitment behind: later placements
                    # must not treat this cell's stale position as real.
                    cell.row_index = None
                    return False
            # Compaction/eviction may have moved cells (possibly across
            # rows): rebuild the per-row occupant records from scratch.
            self._rebuild_records(design)
            return True
        self._insert_record(
            cell,
            cell.row_index,
            int(round((cell.x - core.xl) / core.site_width)),
            movable=True,
        )
        return True

    def _rebuild_records(self, design: Design) -> None:
        """Rebuild per-row occupant lists after a global fallback moved
        committed cells (possibly across rows)."""
        core = design.core
        self._rows = [[] for _ in range(core.num_rows)]
        for other in design.cells:
            row = other.row_index
            if row is None:
                if other.fixed:
                    row = core.row_of_y(other.y)
                else:
                    continue  # not yet placed
            site = int(round((other.x - core.xl) / core.site_width))
            self._insert_record(other, row, site, movable=not other.fixed)

    # ------------------------------------------------------------------
    # Push planning
    # ------------------------------------------------------------------
    def _search_region(
        self, cell: CellInstance, core, home_row: int, site: int, n_sites: int
    ) -> Optional[tuple]:
        """Find a spot in the local region.

        The fast variant is *first fit*: it takes the first candidate row
        (scanned outward from home) offering a free footprint near the
        target — cheap, but it never weighs alternatives.  The improved
        variant is *best fit*: it scores free-footprint candidates and
        push-insertion plans across the whole region and takes the
        cheapest.
        """
        best = None
        best_cost = float("inf")
        max_bottom = core.num_rows - cell.height_rows
        for d_row in range(0, self.region_rows + 1):
            for row in sorted({home_row - d_row, home_row + d_row}):
                if not 0 <= row <= max_bottom:
                    continue
                if not core.rails.row_is_correct(cell.master, row):
                    continue
                y_cost = abs(core.row_y(row) - cell.gp_y)
                if y_cost >= best_cost:
                    continue
                cand = self._site_map.nearest_fit_in_row(
                    row, cell.gp_x, cell.width, cell.height_rows
                )
                if cand is not None:
                    x_cost = abs(self._site_map.site_to_x(cand) - cell.gp_x)
                    if x_cost <= self.region_sites * core.site_width:
                        if not self.improved:
                            return ("free", row, cand, None)
                        cost = y_cost + x_cost
                        if cost < best_cost:
                            best_cost = cost
                            best = ("free", row, cand, None)
                if self.improved:
                    plan = self._plan_push(cell, core, row, site, n_sites)
                    if plan is not None:
                        moves, total_shift = plan
                        x_cost = abs(
                            core.xl + site * core.site_width - cell.gp_x
                        )
                        cost = y_cost + x_cost + total_shift * core.site_width
                        if cost < best_cost:
                            best_cost = cost
                            best = ("push", row, site, moves)
        return best

    def _plan_push(
        self, cell: CellInstance, core, row: int, site: int, n_sites: int
    ) -> Optional[Tuple[List[Tuple["_Placed", int]], int]]:
        """Plan shifts opening ``[site, site+n_sites)`` across the footprint.

        Only single-height movable occupants shift; each spanned row is
        planned independently (a single-height cell lives in exactly one
        row, so plans cannot conflict).  Returns (moves, total_shift_sites)
        or None when the region cannot absorb the cell.
        """
        all_moves: List[Tuple[_Placed, int]] = []
        total = 0
        for r in range(row, row + cell.height_rows):
            res = self._plan_row_push(core, r, site, site + n_sites)
            if res is None:
                return None
            moves, shift = res
            all_moves.extend(moves)
            total += shift
            if total > self.push_limit:
                return None
        return all_moves, total

    def _plan_row_push(
        self, core, row: int, lo: int, hi: int
    ) -> Optional[Tuple[List[Tuple["_Placed", int]], int]]:
        """Open [lo, hi) in one row by cascading pushes; None if impossible."""
        if lo < 0 or hi > core.num_sites:
            return None
        occupants = self._rows[row]
        overlapping = [p for p in occupants if p.site < hi and p.end > lo]
        if not overlapping:
            return [], 0
        if any(not p.movable for p in overlapping):
            return None
        mid = 0.5 * (lo + hi)
        go_left = [p for p in overlapping if p.site + 0.5 * p.n_sites <= mid]
        go_right = [p for p in overlapping if p.site + 0.5 * p.n_sites > mid]

        moves: List[Tuple[_Placed, int]] = []
        total = 0

        # Cascade the left group (and whatever it bumps into) leftward.
        if go_left:
            bound = lo
            i = occupants.index(go_left[-1])
            while i >= 0:
                p = occupants[i]
                if p.end <= bound:
                    break
                new_site = min(p.site, bound - p.n_sites)
                if new_site < 0 or not p.movable:
                    return None
                shift = p.site - new_site
                total += shift
                if total > self.push_limit:
                    return None
                moves.append((p, new_site))
                bound = new_site
                i -= 1

        # Cascade the right group rightward.
        if go_right:
            bound = hi
            start = occupants.index(go_right[0])
            for i in range(start, len(occupants)):
                p = occupants[i]
                if p.site >= bound:
                    break
                new_site = bound
                if new_site + p.n_sites > core.num_sites or not p.movable:
                    return None
                shift = new_site - p.site
                total += shift
                if total > self.push_limit:
                    return None
                moves.append((p, new_site))
                bound = new_site + p.n_sites
        return moves, total

    def _apply_plan(self, cell: CellInstance, core, plan: tuple) -> None:
        row, site, moves = plan
        # Release every moving record, then re-occupy at new positions
        # (two phases so intermediate overlaps cannot corrupt the map).
        for rec, _ in moves:
            self._site_map.release(rec.cell.row_index, rec.site, rec.n_sites)
        for rec, new_site in moves:
            r = rec.cell.row_index
            self._site_map.occupy(r, new_site, rec.n_sites)
            rec.site = new_site
            rec.cell.x = core.xl + new_site * core.site_width
        for r in self._touched_rows(row, cell):
            self._rows[r].sort(key=lambda p: p.site)
        self._commit(cell, core, row, site)

    @staticmethod
    def _touched_rows(row: int, cell: CellInstance):
        return range(row, row + cell.height_rows)
