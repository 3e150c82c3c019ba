"""Independent legality checker.

This module validates the four constraints of the paper's problem statement
(Section 2.1) against a :class:`~repro.netlist.Design`:

1. cells inside the chip region,
2. cells on placement sites and aligned to rows,
3. cells pairwise non-overlapping,
4. even-row-height cells on power-rail-matching rows.

It is deliberately written *independently* of the legalizer's own
bookkeeping (no SiteMap reuse): overlap detection is a plane sweep over the
rows each cell occupies, so a bug in the legalizer's data structures cannot
hide from the checker.
"""

from __future__ import annotations

import sys
from typing import List, Tuple

import numpy as np

from repro.geometry import is_on_grid
from repro.legality.violations import LegalityReport, Violation, ViolationKind
from repro.netlist.cell import CellInstance
from repro.netlist.design import Design
from repro.rows.core_area import CoreArea

#: Absolute snap tolerance, as a fraction of site width / row height.
GRID_TOL = 1e-6

_EPS = sys.float_info.epsilon


def site_tolerance(core: CoreArea) -> float:
    """Absolute x tolerance for boundary/grid checks, in database units.

    ``GRID_TOL`` sites, floored by the float64 resolution at the core's
    coordinate scale: a position assembled as ``origin + k * pitch`` at a
    large origin carries a rounding error up to ``ulp(origin)/2``, so with
    a tiny site width a fixed fraction-of-a-site tolerance flags the
    flow's *own* legal output (e.g. ``x = core.xh - width`` from the
    relaxed-boundary clamp) as off-site or out-of-core.  Every boundary
    comparison in this module uses this one epsilon so the checker and the
    post-flow resilience audit cannot disagree.
    """
    scale = max(abs(core.xl), abs(core.xh), core.site_width)
    return max(GRID_TOL * core.site_width, 8.0 * _EPS * scale)


def row_tolerance(core: CoreArea) -> float:
    """Absolute y tolerance for boundary/grid checks (see ``site_tolerance``)."""
    scale = max(abs(core.yl), abs(core.yh), core.row_height)
    return max(GRID_TOL * core.row_height, 8.0 * _EPS * scale)


def check_legality(design: Design, check_sites: bool = True) -> LegalityReport:
    """Run all legality checks; returns a structured report.

    Set ``check_sites=False`` to validate an intermediate (pre-Tetris)
    placement where cells are row-aligned but not yet site-aligned — useful
    for asserting MMSIM-stage invariants.

    The per-cell checks (containment, alignment, rails) run on *flagged*
    cells only: one array pass over every cell's position computes the
    same comparisons, negated so that NaN and inf are flagged too, and the
    exact scalar checks then run on the flagged cells in cell order.  The
    report is the one the scalar checks would give for every cell.
    """
    core = design.core
    cells = design.cells
    n = len(cells)
    report = LegalityReport(num_cells_checked=n)
    tol_x = site_tolerance(core)
    tol_y = row_tolerance(core)
    x = np.fromiter((c.x for c in cells), float, n)
    y = np.fromiter((c.y for c in cells), float, n)
    w = np.fromiter((c.master.width for c in cells), float, n)
    rows = np.fromiter((c.master.height_rows for c in cells), np.int64, n)
    h = rows * core.row_height
    flagged = _flag_cells(core, cells, x, y, w, h, rows, tol_x, tol_y, check_sites)
    report.num_flagged = len(flagged)
    for i in flagged:
        cell = cells[i]
        _check_core_containment(cell, core, report, tol_x, tol_y)
        _check_alignment(cell, core, report, check_sites, tol_x, tol_y)
        _check_rails(cell, core, report, tol_y)
    _check_overlaps(design, report, x, y, w, h, tol_x, tol_y)
    _check_fences(design, report)
    return report


def _flag_cells(core, cells, x, y, w, h, rows, tol_x, tol_y, check_sites):
    """Indices of the cells whose per-cell checks could report, ascending.

    Mirrors the scalar checks' arithmetic; every test is written as the
    negation of its pass condition, so a NaN or inf anywhere flags the
    cell and leaves the verdict (or the exception) to the scalar code.
    """
    excess_x = np.maximum(np.maximum(core.xl - x, (x + w) - core.xh), 0.0)
    excess_y = np.maximum(np.maximum(core.yl - y, (y + h) - core.yh), 0.0)
    flag = ~(excess_x <= tol_x) | ~(excess_y <= tol_y)
    k_y = (y - core.yl) / core.row_height
    flag |= ~(np.abs(k_y - np.rint(k_y)) <= tol_y / core.row_height)
    if check_sites:
        k_x = (x - core.xl) / core.site_width
        flag |= ~(np.abs(k_x - np.rint(k_x)) <= tol_x / core.site_width)
    even = np.flatnonzero((rows % 2) == 0)
    if len(even):
        # Even-height cells need a row whose bottom rail is theirs: rows of
        # row 0's rail have even indices.  The row is CoreArea.row_of_y.
        row0 = core.rails.bottom_rail_of_row_0
        needs_even = np.fromiter(
            (cells[i].master.bottom_rail == row0 for i in even.tolist()),
            bool, len(even),
        )
        row = np.clip(np.rint(k_y[even]), 0, core.num_rows - 1)
        flag[even] |= ((row % 2) == 0) != needs_even
    return np.flatnonzero(flag).tolist()


# ----------------------------------------------------------------------
# Individual constraint checks
# ----------------------------------------------------------------------
def _check_core_containment(
    cell: CellInstance, core: CoreArea, report: LegalityReport,
    tol_x: float, tol_y: float,
) -> None:
    rect = cell.rect(core.row_height)
    excess_x = max(core.xl - rect.xl, rect.xh - core.xh, 0.0)
    excess_y = max(core.yl - rect.yl, rect.yh - core.yh, 0.0)
    excess = max(excess_x, excess_y)
    if excess_x > tol_x or excess_y > tol_y:
        report.add(
            Violation(
                kind=ViolationKind.OUT_OF_CORE,
                cell_id=cell.id,
                amount=excess,
                message=f"cell {cell.name} exceeds core by {excess:g}",
            )
        )


def _check_alignment(
    cell: CellInstance, core: CoreArea, report: LegalityReport,
    check_sites: bool, tol_x: float, tol_y: float,
) -> None:
    # is_on_grid takes its tolerance in pitch units; derive it from the
    # scale-aware absolute tolerance so huge-origin cores don't flag the
    # float rounding of origin + k*pitch as an off-grid placement.
    tol_sites = tol_x / core.site_width
    tol_rows = tol_y / core.row_height
    if check_sites and not is_on_grid(cell.x, core.xl, core.site_width, tol_sites):
        off = abs(cell.x - core.snap_x(cell.x))
        report.add(
            Violation(
                kind=ViolationKind.OFF_SITE,
                cell_id=cell.id,
                amount=off,
                message=f"cell {cell.name} x={cell.x:g} off the site grid",
            )
        )
    if not is_on_grid(cell.y, core.yl, core.row_height, tol_rows):
        report.add(
            Violation(
                kind=ViolationKind.OFF_ROW,
                cell_id=cell.id,
                amount=abs(cell.y - core.row_y(core.row_of_y(cell.y))),
                message=f"cell {cell.name} y={cell.y:g} not on a row boundary",
            )
        )


def _check_rails(
    cell: CellInstance, core: CoreArea, report: LegalityReport, tol_y: float
) -> None:
    tol_rows = tol_y / core.row_height
    if not is_on_grid(cell.y, core.yl, core.row_height, tol_rows):
        return  # off-row already reported; rail check needs a row index
    row = core.row_of_y(cell.y)
    if cell.master.is_even_height and not core.rails.row_is_correct(cell.master, row):
        report.add(
            Violation(
                kind=ViolationKind.RAIL_MISMATCH,
                cell_id=cell.id,
                amount=1.0,
                message=(
                    f"even-height cell {cell.name} on row {row} with bottom rail "
                    f"{core.bottom_rail(row).value}, needs "
                    f"{cell.master.bottom_rail.value}"
                ),
            )
        )


def _check_fences(design: Design, report: LegalityReport) -> None:
    """Fence-region constraint (exclusive semantics).

    Members must sit inside their fence's union of rects; movable
    non-members must avoid every fence's interior.  Fixed cells are
    exempt — macros and obstacles are inputs, not placements.
    """
    if not design.fences:
        return
    core = design.core
    tol_x = site_tolerance(core)
    tol_y = row_tolerance(core)
    tol = max(tol_x, tol_y)
    membership = design.fence_index_by_cell_id()
    for cell in design.cells:
        if cell.fixed:
            continue
        rect = cell.rect(core.row_height)
        gi = membership.get(cell.id)
        if gi is not None:
            fence = design.fences[gi]
            if not fence.contains(rect.xl, rect.yl, rect.xh, rect.yh, tol=tol):
                report.add(
                    Violation(
                        kind=ViolationKind.FENCE,
                        cell_id=cell.id,
                        amount=cell.width,
                        message=(
                            f"cell {cell.name} is a member of fence "
                            f"{fence.name!r} but lies outside it"
                        ),
                    )
                )
            continue
        for fence in design.fences:
            if fence.overlaps(rect.xl, rect.yl, rect.xh, rect.yh, tol=tol):
                report.add(
                    Violation(
                        kind=ViolationKind.FENCE,
                        cell_id=cell.id,
                        amount=cell.width,
                        message=(
                            f"cell {cell.name} intrudes into fence "
                            f"{fence.name!r} it does not belong to"
                        ),
                    )
                )
                break


def _check_overlaps(
    design: Design, report: LegalityReport, x, y, w, h, tol: float, tol_y: float
) -> None:
    """Row-bucketed interval sweep, vectorized over all (cell, row) pairs.

    The detection pass is pure numpy: expand every cell to the rows its
    body intersects (computed geometrically so the sweep works even for
    off-row mid-legalization placements), lexsort the spans by
    ``(row, xl, xh, id)``, and flag rows whose *adjacent* sorted spans
    overlap by more than the tolerance.  Adjacency suffices for
    detection: if every span in a row is wider than ``tol``, any
    overlapping pair implies an overlapping adjacent pair — take an
    overlapping pair ``(i, j)`` with minimal ``j − i``; any span strictly
    between them starts at or before ``xl[j] < xh[i] − tol``, so it
    either overlaps ``i`` by more than ``tol`` (its own width if it ends
    first, ``xh[i] − xl`` otherwise), contradicting minimality unless
    ``j = i + 1``.  Rows with a degenerate span (width ≤ tol, where the
    argument fails) are flagged conservatively.

    Flagged rows — only rows that actually contain a violation or a
    degenerate span, never the common all-legal case — are re-scanned by
    the original exact Python passes (adjacent zip scan plus the
    active-list sweep for wide-cell containment), in the original
    first-encounter row order with a shared ``seen_pairs`` set, so the
    report (order, messages, dedup) is bit-identical to the per-row
    reference scan.
    """
    core = design.core
    ncells = len(x)
    if ncells < 2:
        return
    rh = core.row_height
    tol_rows = tol_y / rh
    # floor, not int(): int() truncates toward zero, so a cell entirely
    # below core.yl would collapse to row_hi = 0 and collide with every
    # legitimate row-0 occupant.  With floor the range is empty instead.
    row_lo = np.floor((y - core.yl) / rh + tol_rows).astype(np.intp)
    np.maximum(row_lo, 0, out=row_lo)
    row_hi = np.floor((y + h - core.yl) / rh - tol_rows).astype(np.intp)
    np.minimum(row_hi, core.num_rows - 1, out=row_hi)
    counts = np.maximum(row_hi - row_lo + 1, 0)
    total = int(counts.sum())
    if total < 2:
        return
    # (cell, row) expansion in the reference scan's bucket-fill order:
    # cells in id order, each cell's rows ascending.
    ids = np.repeat(np.arange(ncells), counts)
    offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
    rows = np.repeat(row_lo, counts) + (np.arange(total) - np.repeat(offs, counts))
    xl = x[ids]
    xh = xl + w[ids]
    order = np.lexsort((ids, xh, xl, rows))
    srows = rows[order]
    same = srows[1:] == srows[:-1]
    sxh = xh[order]
    adj_overlap = np.minimum(sxh[:-1], sxh[1:]) - xl[order][1:]
    adj_hit = same & (adj_overlap > tol)
    flagged = set(np.unique(srows[:-1][adj_hit]).tolist())
    thin = w[ids] <= tol
    if thin.any():
        flagged.update(np.unique(rows[thin]).tolist())
    if not flagged:
        return
    uniq_rows, first_idx = np.unique(rows, return_index=True)
    encounter = dict(zip(uniq_rows.tolist(), first_idx.tolist()))
    seen_pairs: set = set()
    for row in sorted(flagged, key=encounter.__getitem__):
        mask = rows == row
        spans = list(
            zip(xl[mask].tolist(), xh[mask].tolist(), ids[mask].tolist())
        )
        spans.sort()
        for (xl0, xh0, id0), (xl1, xh1, id1) in zip(spans, spans[1:]):
            overlap = min(xh0, xh1) - max(xl0, xl1)
            if overlap > tol:
                pair = (min(id0, id1), max(id0, id1))
                if pair in seen_pairs:
                    continue
                # Overlapping *fixed* obstacles are a legal input (see
                # IntervalSet.subtract); only pairs with a movable cell
                # are placement violations.
                if design.cells[pair[0]].fixed and design.cells[pair[1]].fixed:
                    continue
                seen_pairs.add(pair)
                c0 = design.cells[pair[0]]
                report.add(
                    Violation(
                        kind=ViolationKind.OVERLAP,
                        cell_id=pair[0],
                        other_id=pair[1],
                        amount=overlap,
                        message=(
                            f"cells {c0.name} and {design.cells[pair[1]].name} "
                            f"overlap by {overlap:g} in row {row}"
                        ),
                    )
                )
        # The adjacent-pair scan above misses overlaps where a wide cell
        # spans several narrower ones; the active-list sweep catches those.
        _sweep_non_adjacent(spans, seen_pairs, design, report, row, tol)


def _sweep_non_adjacent(
    spans: List[Tuple[float, float, int]],
    seen_pairs: set,
    design: Design,
    report: LegalityReport,
    row: int,
    tol: float,
) -> None:
    """Catch overlaps between non-adjacent spans via an active-list sweep."""
    active: List[Tuple[float, float, int]] = []
    for xl, xh, cid in spans:  # spans already sorted by xl
        active = [(axl, axh, aid) for (axl, axh, aid) in active if axh - tol > xl]
        for axl, axh, aid in active:
            overlap = min(axh, xh) - xl
            if overlap > tol:
                pair = (min(aid, cid), max(aid, cid))
                if pair in seen_pairs:
                    continue
                if design.cells[pair[0]].fixed and design.cells[pair[1]].fixed:
                    continue
                seen_pairs.add(pair)
                report.add(
                    Violation(
                        kind=ViolationKind.OVERLAP,
                        cell_id=pair[0],
                        other_id=pair[1],
                        amount=overlap,
                        message=(
                            f"cells {design.cells[pair[0]].name} and "
                            f"{design.cells[pair[1]].name} overlap by "
                            f"{overlap:g} in row {row}"
                        ),
                    )
                )
        active.append((xl, xh, cid))


def assert_legal(design: Design, check_sites: bool = True) -> None:
    """Raise ``AssertionError`` with a readable summary if illegal."""
    report = check_legality(design, check_sites=check_sites)
    if not report.is_legal:
        details = "\n".join(v.message for v in report.violations[:20])
        raise AssertionError(f"{report.summary()}\n{details}")
