"""Stage 5: Tetris-like allocation (Section 4 of the paper).

After the MMSIM solve, cells sit at real-valued x positions on correct
rows.  This stage

1. snaps every cell to its nearest placement site,
2. scans cells in x order, committing each into a :class:`SiteMap`; a cell
   that overlaps an already-committed cell, sticks out of the right (or
   left) core boundary, is marked *illegal* — Table 1 reports exactly these
   counts ("#I. Cell"),
3. re-places every illegal cell at the nearest free, rail-correct,
   site-aligned position (nearest to its MMSIM position, preserving the
   optimizer's intent).

Because the MMSIM already resolves essentially all overlaps, illegal cells
are rare (the paper averages 0.03%); this stage's moves are what make the
final result "near-optimal" rather than optimal on dense designs.  Step 2
therefore decides in arrays which cells could possibly collide and runs
the per-cell ``SiteMap`` scan on those *suspects* only (see
:func:`_commit_snapped`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.legality.checker import row_tolerance, site_tolerance
from repro.netlist.cell import CellInstance
from repro.netlist.design import Design
from repro.rows.core_area import InfeasibleAssignment
from repro.rows.sitemap import SiteMap, footprint_rows


@dataclass
class TetrisFixStats:
    """Outcome of the allocation stage."""

    num_cells: int = 0
    num_illegal: int = 0
    num_unplaced: int = 0
    #: Fence members that entered the fixing passes (their snapped MMSIM
    #: position collided inside the fence) — the ``fence.spill_cells``
    #: telemetry counter.
    fence_spill_cells: int = 0
    #: Total Manhattan distance movable cells moved during the fixing
    #: passes (nearest-free re-placement, compaction, eviction, and the
    #: PlaceRow refinement) — every move is charged, not just the
    #: directly re-placed illegal cells.
    fix_displacement: float = 0.0
    illegal_cell_ids: List[int] = field(default_factory=list)
    #: Cells that went through pass 1's per-cell ``SiteMap`` scan (the
    #: rest were proven collision-free in arrays and committed in bulk) —
    #: the ``tetris`` span's ``suspects`` attribute.
    num_suspects: int = 0

    @property
    def illegal_fraction(self) -> float:
        return self.num_illegal / self.num_cells if self.num_cells else 0.0


def tetris_allocate(design: Design) -> TetrisFixStats:
    """Run the Tetris-like allocation in place; returns fix statistics.

    With fence regions each fence group gets its *own* :class:`SiteMap`:
    sites outside a member's fence (and partially-covered boundary sites)
    are blocked for that member, and sites inside any fence are blocked
    for unfenced movable cells.  Because the groups' allowed site sets
    are disjoint, committing a cell only into its group's map is safe —
    no cross-group overlap can arise.
    """
    core = design.core
    movable = design.movable_cells
    stats = TetrisFixStats(num_cells=len(movable))
    membership = design.fence_index_by_cell_id() if design.fences else {}
    maps, blocked_x = _obstacle_maps(design)

    # Pass 1: snap to sites and commit in x order; collect illegal cells.
    groups = [-1] * len(movable)
    if membership:
        groups = [membership.get(c.id, -1) for c in movable]
    illegal, clean, sites, rows, pre_x, pre_y = _commit_snapped(
        core, movable, groups, maps
    )
    stats.num_suspects = len(movable) - len(clean)
    stats.num_illegal = len(illegal)
    stats.illegal_cell_ids = [c.id for c in illegal]
    x, y, placed = pre_x, pre_y, rows
    if illegal:
        # The fixing passes need every committed footprint as a barrier.
        # Clean footprints are disjoint from each other and from every
        # suspect's, so the order they are added in does not matter.
        for i, site in zip(clean, sites):
            maps[groups[i]].occupy_cell(movable[i], rows[i], site)
        _fix_illegal(design, illegal, membership, maps, blocked_x, stats)
        x = np.fromiter((c.x for c in movable), float, len(movable))
        y = np.fromiter((c.y for c in movable), float, len(movable))
        placed = [c.row_index for c in movable]

    # fix_displacement must charge *every* move the fixing passes make —
    # compaction shifts, evictions, and the PlaceRow refinement move
    # legally-committed cells too, not just the illegal ones that
    # place_at_nearest_free relocates: total the Manhattan diffs from the
    # positions pass 1 left (builtin sum, in cell order).
    x, y = _canonicalize(core, movable, x, y, placed)
    stats.fix_displacement = sum((np.abs(x - pre_x) + np.abs(y - pre_y)).tolist())
    return stats


def _fix_illegal(design: Design, illegal, membership, maps, blocked_x, stats) -> None:
    """Pass 2: nearest-free-site re-placement of the illegal cells, in
    order, into maps holding every committed footprint; when free space is
    too fragmented, compact a row span to make room.  Cells not yet
    re-placed must not act as phantom barriers during compaction."""
    from repro.core.compaction import compact_rows_and_place, evict_and_place

    pending = {c.id for c in illegal}
    used_compaction = False
    for cell in illegal:
        pending.discard(cell.id)
        cell_map = maps[membership.get(cell.id, -1)]
        if membership.get(cell.id) is not None:
            stats.fence_spill_cells += 1
        if place_at_nearest_free(cell, design, cell_map, stats):
            continue
        if design.fences:
            # Compaction and eviction must stay inside this cell's group:
            # same-group cells are the only movable neighbours (everything
            # else lives inside this group's blocked intervals, which act
            # as immovable barriers), and all moves go through the group's
            # own map.
            gi = membership.get(cell.id, -1)

            def group(other, _gi=gi):
                return membership.get(other.id, -1) == _gi
            if compact_rows_and_place(
                design, cell_map, cell, ignore=pending,
                eligible=group, blocked=blocked_x[gi],
            ):
                used_compaction = True
                continue
            if evict_and_place(
                design, cell_map, cell, ignore=pending,
                eligible=group, blocked=blocked_x[gi],
            ):
                used_compaction = True
                continue
            stats.num_unplaced += 1
            continue
        if compact_rows_and_place(design, maps[-1], cell, ignore=pending):
            used_compaction = True
            continue
        if evict_and_place(design, maps[-1], cell, ignore=pending):
            used_compaction = True
            continue
        stats.num_unplaced += 1

    if used_compaction and stats.num_unplaced == 0 and not design.fences:
        # Compaction slams whole row spans flush left — legal but far from
        # the displacement optimum.  A row-local PlaceRow refinement pulls
        # everything back toward the GP targets at no legality risk.
        from repro.baselines.refine import placerow_refine

        placerow_refine(design)


def _obstacle_maps(design: Design):
    """Per-group site maps holding fences and fixed obstacles only.

    Returns ``(maps, blocked_x)``: the :class:`SiteMap` of each fence group
    (``-1`` for unfenced cells) and, per group and row, the forbidden
    x-intervals mirroring each map's fence blocks, which the group-aware
    compaction fallback needs as explicit barriers.
    """
    core = design.core
    site_map = SiteMap(core)
    maps = {-1: site_map}
    # Per-group forbidden x-intervals, mirroring each map's blocked sites;
    # the group-aware compaction fallback needs them as explicit barriers.
    blocked_x = {-1: {}}
    eps_x = site_tolerance(core) / core.site_width

    def _to_x(site: int) -> float:
        return core.xl + site * core.site_width

    if design.fences:
        for row in range(core.num_rows):
            for fence in design.fences:
                # Unfenced cells must avoid every site a fence touches.
                for lo, hi in fence.row_overlap_spans(core, row):
                    s_lo = max(
                        0, int(math.floor((lo - core.xl) / core.site_width + eps_x))
                    )
                    s_hi = min(
                        core.num_sites,
                        int(math.ceil((hi - core.xl) / core.site_width - eps_x)),
                    )
                    if s_hi > s_lo:
                        site_map.block(row, s_lo, s_hi - s_lo)
                        blocked_x[-1].setdefault(row, []).append(
                            (_to_x(s_lo), _to_x(s_hi))
                        )
        for gi, fence in enumerate(design.fences):
            fence_map = SiteMap(core)
            blocked_x[gi] = {}
            for row in range(core.num_rows):
                # Members may use only sites *fully* inside the fence:
                # block the complement, including partially-covered
                # boundary sites.
                prev = 0
                for lo, hi in fence.row_spans(core, row):
                    s_lo = int(math.ceil((lo - core.xl) / core.site_width - eps_x))
                    s_hi = int(math.floor((hi - core.xl) / core.site_width + eps_x))
                    s_lo = max(s_lo, 0)
                    s_hi = min(s_hi, core.num_sites)
                    if s_hi <= s_lo:
                        continue
                    if s_lo > prev:
                        fence_map.block(row, prev, s_lo - prev)
                        blocked_x[gi].setdefault(row, []).append(
                            (_to_x(prev), _to_x(s_lo))
                        )
                    prev = max(prev, s_hi)
                if prev < core.num_sites:
                    fence_map.block(row, prev, core.num_sites - prev)
                    blocked_x[gi].setdefault(row, []).append(
                        (_to_x(prev), _to_x(core.num_sites))
                    )
            maps[gi] = fence_map

    # Fixed cells are obstacles: block their footprints first.  A fixed
    # cell need not be row- or site-aligned (macros and pre-placed blocks
    # often aren't), so the blocked region is the full span of sites/rows
    # its rectangle *touches* — rounding to the nearest row/site would
    # leave partially-covered sites marked free and invite overlaps.
    # Parts outside the core block nothing (there is nothing to block),
    # and overlapping fixed cells block their union (SiteMap.block).
    # The boundary epsilon is the same ulp-aware tolerance the legality
    # checker uses: a fixed 1e-9 in row units collapses at large origins
    # (e.g. yl ~ 5e7 with sub-unit rows), where the float rounding of
    # (y - yl) / row_height exceeds it and an aligned obstacle on row k
    # appears to touch row k - 1 as well.
    eps_y = row_tolerance(core) / core.row_height
    for cell in design.cells:
        if not cell.fixed:
            continue
        site_lo = int(math.floor((cell.x - core.xl) / core.site_width + eps_x))
        site_hi = int(
            math.ceil((cell.x + cell.width - core.xl) / core.site_width - eps_x)
        )
        row_lo = int(math.floor((cell.y - core.yl) / core.row_height + eps_y))
        row_hi = int(
            math.ceil(
                (cell.y + cell.height(core.row_height) - core.yl)
                / core.row_height
                - eps_y
            )
        )
        site_lo = max(site_lo, 0)
        site_hi = min(site_hi, core.num_sites)
        if site_hi <= site_lo:
            continue
        for row in range(max(row_lo, 0), min(row_hi, core.num_rows)):
            # Macros and obstacles block every group's map alike.
            for group_map in maps.values():
                group_map.block(row, site_lo, site_hi - site_lo)
    return maps, blocked_x


def _canonicalize(core, movable: List[CellInstance], x, y, rows):
    """Re-derive every committed coordinate from its site/row index.

    Uses the same formulas as the snap path (``CoreArea.snap_x`` and
    ``CoreArea.row_y``).  Compaction and PlaceRow compute site-aligned
    positions arithmetically (cursors, cluster sums); at fractional site
    widths the result can differ from the canonical value by an ulp, which
    breaks bitwise idempotence of the whole flow (re-legalizing the output
    moves cells by 1e-15).  Cells without a row keep their y.  Returns the
    written ``(x, y)`` arrays.
    """
    x = core.xl + np.floor((x - core.xl) / core.site_width + 0.5) * core.site_width
    placed = np.array([r is not None for r in rows], dtype=bool)
    row = np.array([r if r is not None else 0 for r in rows], dtype=np.int64)
    out_of_range = placed & ((row < 0) | (row >= core.num_rows))
    if out_of_range.any():
        core.row_y(rows[int(np.argmax(out_of_range))])  # raises IndexError
    y = np.where(placed, core.yl + row * core.row_height, y)
    for cell, xv, yv, on_row in zip(movable, x.tolist(), y.tolist(), placed.tolist()):
        cell.x = xv
        if on_row:
            cell.y = yv
    return x, y


def _commit_snapped(core, movable: List[CellInstance], groups, maps):
    """Pass 1: snap every movable cell to its nearest site and commit it
    into its group's map in ``(x, id)`` order; returns what it committed.

    The outcome is that of the plain per-cell scan — a cell commits at its
    snapped site iff that footprint is inside the core and still free in
    its group's map, and is illegal otherwise — but only *suspects* go
    through the scan.  A cell is *clean* when its snapped footprint is
    inside the core, touches no blocked site of its group's map (which
    holds obstacles only at this point), and overlaps no other such cell's
    snapped footprint in its group.  A clean cell commits whatever the
    order and never blocks another cell, so clean cells commit in bulk.
    Out-of-core and blocked footprints never commit, so they cannot make a
    clean cell a suspect.  Rows missing on entry are assigned in scan
    order, so an ``InfeasibleAssignment`` names the first such cell.

    Returns ``(illegal, clean, sites, rows, x, y)``: the illegal cells in
    scan order, the indices and site indices of the bulk-committed cells
    (their footprints are *not* yet in the maps), every cell's bottom row,
    and every cell's position after the pass.
    """
    n = len(movable)
    x = np.fromiter((c.x for c in movable), float, n)
    ids = np.fromiter((c.id for c in movable), np.int64, n)
    order = np.lexsort((ids, x)).tolist()
    rows = [c.row_index for c in movable]
    if None in rows:
        for i in order:
            if rows[i] is None:
                cell = movable[i]
                try:
                    cell.row_index = core.nearest_correct_row(cell.master, cell.y)
                except InfeasibleAssignment as exc:
                    raise exc.for_cell(cell.name) from None
                cell.y = core.row_y(cell.row_index)
                rows[i] = cell.row_index
    y = np.fromiter((c.y for c in movable), float, n)
    row = np.array(rows, dtype=np.int64)
    height = np.fromiter((c.master.height_rows for c in movable), np.int64, n)
    width = np.fromiter((c.master.width for c in movable), float, n)
    group = np.array(groups, dtype=np.int64)

    # The scan's arithmetic: CoreArea.snap_x, round() (half to even, like
    # np.rint) and SiteMap.sites_of_width.
    xl, sw = core.xl, core.site_width
    snapped = xl + np.floor((x - xl) / sw + 0.5) * sw
    site = np.rint((snapped - xl) / sw)
    span = np.maximum(np.ceil(width / sw - 1e-9), 1.0)
    free = (
        (site >= 0) & (site + span <= core.num_sites)
        & (row >= 0) & (row + height <= core.num_rows)
    )
    for g in np.unique(group[free]).tolist():
        members = np.flatnonzero(free & (group == g))
        free[members] = maps[g].footprints_free(
            row[members], site[members], span[members], height[members]
        )
    clean = free & ~_overlapping(core, free, group, row, height, site, span)

    illegal: List[CellInstance] = []
    suspect = (~clean).tolist()
    for i in order:
        if not suspect[i]:
            continue
        cell = movable[i]
        cell_map = maps[groups[i]]
        snapped_x = core.snap_x(cell.x)
        site_i = int(round((snapped_x - core.xl) / core.site_width))
        n_sites = cell_map.sites_of_width(cell.width)
        if cell_map.footprint_free(cell.row_index, site_i, n_sites, cell.height_rows):
            cell.x = snapped_x
            cell_map.occupy_cell(cell, cell.row_index, site_i)
            x[i] = snapped_x
        else:
            illegal.append(cell)

    clean_idx = np.flatnonzero(clean)
    x[clean_idx] = snapped[clean_idx]
    for i, xv in zip(clean_idx.tolist(), snapped[clean_idx].tolist()):
        movable[i].x = xv
    return (
        illegal, clean_idx.tolist(), site[clean_idx].astype(np.int64).tolist(),
        rows, x, y,
    )


def _overlapping(core, candidate, group, row, height, site, span):
    """Cells whose footprint overlaps another candidate's in their group.

    Expands each candidate into one ``[site, site + span)`` span per row
    it occupies, lexsorts the spans by ``(group, row, site)``, and flags a
    span when it starts before the running maximum of the earlier spans'
    ends in its (group, row), or ends after the next span starts.
    Together the two tests find both members of every overlapping pair.
    """
    flagged = np.zeros(len(candidate), dtype=bool)
    cells = np.flatnonzero(candidate)
    if len(cells) < 2:
        return flagged
    owner, span_row = footprint_rows(cells, row, height)
    order = np.lexsort((site[owner], span_row, group[owner]))
    owner, span_row = owner[order], span_row[order]
    g = group[owner]
    lo = site[owner]
    hi = lo + span[owner]
    new_segment = np.ones(len(owner), dtype=bool)
    new_segment[1:] = (g[1:] != g[:-1]) | (span_row[1:] != span_row[:-1])
    # Offsetting each (group, row) segment by a multiple of the row width
    # lets one running maximum stand in for a per-segment one.
    base = np.cumsum(new_segment) * float(core.num_sites + 1)
    reach = np.maximum.accumulate(hi + base)
    hit = np.zeros(len(owner), dtype=bool)
    hit[1:] = lo[1:] + base[1:] < reach[:-1]
    hit[:-1] |= ~new_segment[1:] & (lo[1:] < hi[:-1])
    flagged[owner[hit]] = True
    return flagged


def place_at_nearest_free(
    cell: CellInstance, design: Design, site_map: SiteMap, stats: TetrisFixStats
) -> bool:
    """Find and commit the nearest free footprint for an illegal cell.

    Candidate rows are scanned outward from the cell's current row; the scan
    stops as soon as a row's pure y-distance already exceeds the best total
    cost found (rows further away can only be worse).
    """
    core = design.core
    master = cell.master
    home_row = cell.row_index if cell.row_index is not None else core.row_of_y(cell.y)
    max_bottom = core.num_rows - master.height_rows
    best: Optional[tuple] = None   # (cost, row, site)

    for row in _rows_by_distance(home_row, max_bottom):
        if not core.rails.row_is_correct(master, row):
            continue
        y_cost = abs(core.row_y(row) - cell.y)
        if best is not None and y_cost >= best[0]:
            break
        site = site_map.nearest_fit_in_row(row, cell.x, cell.width, master.height_rows)
        if site is None:
            continue
        x_cost = abs(site_map.site_to_x(site) - cell.x)
        cost = x_cost + y_cost
        if best is None or cost < best[0]:
            best = (cost, row, site)

    if best is None:
        return False
    cost, row, site = best
    new_x = site_map.site_to_x(site)
    new_y = core.row_y(row)
    stats.fix_displacement += abs(new_x - cell.x) + abs(new_y - cell.y)
    cell.x = new_x
    cell.y = new_y
    cell.row_index = row
    if master.bottom_rail is not None and not master.is_even_height:
        cell.flipped = core.rails.needs_flip(master, row)
    site_map.occupy_cell(cell, row, site)
    return True


def _rows_by_distance(center: int, max_bottom: int):
    """Bottom-row indices 0..max_bottom ordered by |row − center|."""
    if max_bottom < 0:
        return
    center = min(max(center, 0), max_bottom)
    yield center
    step = 1
    while True:
        lo, hi = center - step, center + step
        emitted = False
        if hi <= max_bottom:
            yield hi
            emitted = True
        if lo >= 0:
            yield lo
            emitted = True
        if not emitted:
            return
        step += 1
