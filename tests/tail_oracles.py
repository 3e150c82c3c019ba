"""Per-cell reference implementations of the flow's array-pass stages.

Each function here is the plain per-cell loop that the corresponding
stage in ``src/`` replaced with numpy passes: Tetris pass 1 (with the
final canonicalization and ``fix_displacement`` total), the audit's
per-cell containment/alignment/rail checks, row assignment, and the
multi-row split with the QP assembly that reads it (one ``Subcell``
object per variable).  The property tests compare the production stages
against these bit for bit.  Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import repro.core.row_assign as row_assign
import repro.core.tetris_fix as tetris_fix
import repro.legality.checker as checker
from repro.core.qp_builder import fixed_cell_anchors
from repro.core.row_assign import RowAssignment
from repro.core.tetris_fix import TetrisFixStats
from repro.geometry import is_on_grid
from repro.legality.violations import LegalityReport, Violation, ViolationKind
from repro.rows.core_area import InfeasibleAssignment


# ----------------------------------------------------------------------
# Tetris allocation: the (x, id)-ordered per-cell SiteMap scan
# ----------------------------------------------------------------------
def tetris_allocate_oracle(design) -> TetrisFixStats:
    core = design.core
    stats = TetrisFixStats(num_cells=len(design.movable_cells))
    membership = design.fence_index_by_cell_id() if design.fences else {}
    maps, blocked_x = tetris_fix._obstacle_maps(design)

    order = sorted(design.movable_cells, key=lambda c: (c.x, c.id))
    illegal = []
    for cell in order:
        cell_map = maps[membership.get(cell.id, -1)]
        if cell.row_index is None:
            try:
                cell.row_index = core.nearest_correct_row(cell.master, cell.y)
            except InfeasibleAssignment as exc:
                raise exc.for_cell(cell.name) from None
            cell.y = core.row_y(cell.row_index)
        snapped = core.snap_x(cell.x)
        site = int(round((snapped - core.xl) / core.site_width))
        n_sites = cell_map.sites_of_width(cell.width)
        if cell_map.footprint_free(cell.row_index, site, n_sites, cell.height_rows):
            cell.x = snapped
            cell_map.occupy_cell(cell, cell.row_index, site)
        else:
            illegal.append(cell)
    stats.num_illegal = len(illegal)
    stats.illegal_cell_ids = [c.id for c in illegal]

    pre_fix = {c.id: (c.x, c.y) for c in design.movable_cells}
    tetris_fix._fix_illegal(design, illegal, membership, maps, blocked_x, stats)
    for cell in design.movable_cells:
        cell.x = core.snap_x(cell.x)
        if cell.row_index is not None:
            cell.y = core.row_y(cell.row_index)
    stats.fix_displacement = sum(
        abs(c.x - pre_fix[c.id][0]) + abs(c.y - pre_fix[c.id][1])
        for c in design.movable_cells
    )
    return stats


# ----------------------------------------------------------------------
# Legality audit: three scalar checks per cell
# ----------------------------------------------------------------------
def check_legality_oracle(design, check_sites: bool = True) -> LegalityReport:
    report = LegalityReport(num_cells_checked=design.num_cells)
    for cell in design.cells:
        _containment(cell, design, report)
        _alignment(cell, design, report, check_sites)
        _rails(cell, design, report)
    core = design.core
    rh = core.row_height
    x = np.array([c.x for c in design.cells], dtype=float)
    y = np.array([c.y for c in design.cells], dtype=float)
    w = np.array([c.width for c in design.cells], dtype=float)
    h = np.array([c.height(rh) for c in design.cells], dtype=float)
    checker._check_overlaps(
        design, report, x, y, w, h,
        checker.site_tolerance(core), checker.row_tolerance(core),
    )
    checker._check_fences(design, report)
    return report


def _containment(cell, design, report) -> None:
    core = design.core
    rect = cell.rect(core.row_height)
    excess_x = max(core.xl - rect.xl, rect.xh - core.xh, 0.0)
    excess_y = max(core.yl - rect.yl, rect.yh - core.yh, 0.0)
    excess = max(excess_x, excess_y)
    if (excess_x > checker.site_tolerance(core)
            or excess_y > checker.row_tolerance(core)):
        report.add(Violation(
            kind=ViolationKind.OUT_OF_CORE, cell_id=cell.id, amount=excess,
            message=f"cell {cell.name} exceeds core by {excess:g}",
        ))


def _alignment(cell, design, report, check_sites) -> None:
    core = design.core
    tol_sites = checker.site_tolerance(core) / core.site_width
    tol_rows = checker.row_tolerance(core) / core.row_height
    if check_sites and not is_on_grid(cell.x, core.xl, core.site_width, tol_sites):
        report.add(Violation(
            kind=ViolationKind.OFF_SITE, cell_id=cell.id,
            amount=abs(cell.x - core.snap_x(cell.x)),
            message=f"cell {cell.name} x={cell.x:g} off the site grid",
        ))
    if not is_on_grid(cell.y, core.yl, core.row_height, tol_rows):
        report.add(Violation(
            kind=ViolationKind.OFF_ROW, cell_id=cell.id,
            amount=abs(cell.y - core.row_y(core.row_of_y(cell.y))),
            message=f"cell {cell.name} y={cell.y:g} not on a row boundary",
        ))


def _rails(cell, design, report) -> None:
    core = design.core
    tol_rows = checker.row_tolerance(core) / core.row_height
    if not is_on_grid(cell.y, core.yl, core.row_height, tol_rows):
        return
    row = core.row_of_y(cell.y)
    if cell.master.is_even_height and not core.rails.row_is_correct(cell.master, row):
        report.add(Violation(
            kind=ViolationKind.RAIL_MISMATCH, cell_id=cell.id, amount=1.0,
            message=(
                f"even-height cell {cell.name} on row {row} with bottom rail "
                f"{core.bottom_rail(row).value}, needs "
                f"{cell.master.bottom_rail.value}"
            ),
        ))


# ----------------------------------------------------------------------
# Row assignment: one scalar nearest-correct-row call per cell
# ----------------------------------------------------------------------
def assign_rows_oracle(design) -> RowAssignment:
    core = design.core
    assignment = RowAssignment()
    membership = design.fence_index_by_cell_id()
    for cell in design.movable_cells:
        fence = (
            design.fences[membership[cell.id]] if cell.id in membership else None
        )
        try:
            if fence is not None:
                row = row_assign._nearest_fence_row(design, cell, fence)
            else:
                row = core.nearest_correct_row(cell.master, cell.gp_y)
        except InfeasibleAssignment as exc:
            raise exc.for_cell(cell.name) from None
        cell.row_index = row
        cell.y = core.row_y(row)
        cell.x = cell.gp_x
        cell.flipped = (
            not cell.master.is_even_height
            and cell.master.bottom_rail is not None
            and core.rails.needs_flip(cell.master, row)
        )
        if cell.flipped:
            assignment.num_flipped += 1
        assignment.y_displacement += abs(cell.y - cell.gp_y)
        assignment.rows.setdefault(row, []).append(cell)
        for r in range(row, row + cell.height_rows):
            assignment.occupied.setdefault(r, []).append(cell)
    for row_cells in assignment.rows.values():
        row_cells.sort(key=lambda c: (c.gp_x, c.id))
    for row_cells in assignment.occupied.values():
        row_cells.sort(key=lambda c: (c.gp_x, c.id))
    return assignment


# ----------------------------------------------------------------------
# Multi-row split and QP assembly: one Subcell object per variable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Subcell:
    var: int
    cell: object
    row: int
    slice_index: int


@dataclass
class SubcellObjects:
    """``subcells`` by variable id; ``by_cell[cell.id]`` the cell's
    variables bottom-up; ``row_sequence[r]`` row r's variables in the
    assignment's GP-x order."""

    subcells: list = field(default_factory=list)
    by_cell: dict = field(default_factory=dict)
    row_sequence: dict = field(default_factory=dict)


def split_cells_oracle(design, assignment) -> SubcellObjects:
    model = SubcellObjects()
    for cell in design.movable_cells:
        if cell.row_index is None:
            raise ValueError(
                f"cell {cell.name!r} has no row assignment; run assign_rows first"
            )
        vars_of_cell = []
        for j in range(cell.height_rows):
            var = len(model.subcells)
            model.subcells.append(Subcell(var, cell, cell.row_index + j, j))
            vars_of_cell.append(var)
        model.by_cell[cell.id] = vars_of_cell
    for row, cells in assignment.occupied.items():
        model.row_sequence[row] = [
            model.by_cell[cell.id][row - cell.row_index] for cell in cells
        ]
    return model


def build_legalization_qp_oracle(
    design, model, lam=1000.0, enforce_right_boundary=False
) -> dict:
    """``H, B, E, b, p, lower, var_groups`` of the relaxed QP."""
    n = len(model.subcells)
    x_origin = design.core.xl
    widths = np.array([sc.cell.width for sc in model.subcells], dtype=float)
    targets = np.array(
        [sc.cell.gp_x - x_origin for sc in model.subcells], dtype=float
    )
    rows, cols, data = [], [], []
    k = 0
    for cell_id in sorted(model.by_cell):
        first, *others = model.by_cell[cell_id]
        for other in others:
            rows.extend([k, k])
            cols.extend([first, other])
            data.extend([-1.0, 1.0])
            k += 1
    E = sp.csr_matrix((data, (rows, cols)), shape=(k, n))

    anchors = fixed_cell_anchors(design)
    var_groups = group_anchors = None
    if design.fences:
        var_groups, group_anchors = _fence_group_anchors_oracle(
            design, model, anchors
        )
    jl = np.zeros(n)
    for var, bound in _joint_lowers_oracle(
        model, anchors, x_origin, var_groups, group_anchors
    ).items():
        jl[var] = bound

    segments = []
    for row in sorted(model.row_sequence):
        seq = model.row_sequence[row]
        if var_groups is None:
            parts = [(seq, anchors.get(row, ()))]
        else:
            parts = [
                ([v for v in seq if var_groups[v] == g],
                 group_anchors[g].get(row, ()))
                for g in sorted(group_anchors)
            ]
        for part_seq, obstacles in parts:
            if part_seq:
                segments.extend(_split_by_anchors_oracle(
                    part_seq, obstacles, jl, widths, targets
                ))
    lower = np.zeros(n)
    for seg_vars, seg_lo, _ in segments:
        for var in seg_vars:
            lower[var] = max(seg_lo, jl[var])

    right = design.core.width if enforce_right_boundary else None
    triplets, b = [], []
    for seg_vars, seg_lo, seg_hi in segments:
        if not seg_vars:
            continue
        for left, right_var in zip(seg_vars, seg_vars[1:]):
            triplets += [(len(b), left, -1.0), (len(b), right_var, 1.0)]
            b.append(widths[left] + lower[left] - lower[right_var])
        if seg_hi is None and right is not None:
            total = float(sum(widths[seg_vars].tolist()))
            if seg_lo + total <= right + 1e-9:
                last = seg_vars[-1]
                triplets.append((len(b), last, -1.0))
                b.append(widths[last] - (right - seg_lo))
    if b:
        r, c, d = zip(*triplets)
        B = sp.csr_matrix((d, (r, c)), shape=(len(b), n))
    else:
        B = sp.csr_matrix((0, n))
    return {
        "H": sp.identity(n, format="csr") + lam * (E.T @ E),
        "B": B,
        "E": E,
        "b": np.array(b, dtype=float),
        "p": -np.maximum(targets - lower, 0.0),
        "lower": lower,
        "var_groups": var_groups,
    }


def _joint_lowers_oracle(model, anchors, x_origin, var_groups, group_anchors):
    joint = {}
    if not anchors and group_anchors is None:
        return joint
    for vars_of_cell in model.by_cell.values():
        if len(vars_of_cell) < 2:
            continue
        cell = model.subcells[vars_of_cell[0]].cell
        cell_anchors = (
            anchors if var_groups is None
            else group_anchors[int(var_groups[vars_of_cell[0]])]
        )
        merged = []
        for var in vars_of_cell:
            merged.extend(cell_anchors.get(model.subcells[var].row, ()))
        if not merged:
            continue
        merged.sort()
        coalesced = []
        for start, end in merged:
            if coalesced and start <= coalesced[-1][1] + 1e-9:
                coalesced[-1] = (coalesced[-1][0], max(coalesced[-1][1], end))
            else:
                coalesced.append((start, end))
        target = cell.gp_x - x_origin
        lo = 0.0
        for start, end in coalesced:
            if start - lo >= cell.width - 1e-9 and target < start:
                break
            lo = max(lo, end)
        for var in vars_of_cell:
            joint[var] = lo
    return joint


def _split_by_anchors_oracle(seq, row_anchors, jl, widths, targets):
    obstacles = sorted(row_anchors)
    bounds = []
    lo = 0.0
    for start, end in obstacles:
        bounds.append((lo, start))
        lo = end
    bounds.append((lo, None))
    # First segment whose right edge exceeds the effective target.
    buckets = [[] for _ in bounds]
    for var in seq:
        effective = max(targets[var], jl[var])
        for i, (_, seg_hi) in enumerate(bounds):
            if seg_hi is None or effective < seg_hi:
                buckets[i].append(var)
                break
    # Overflow cascades rightward, tail first.
    for i in range(len(buckets) - 1):
        seg_lo, seg_hi = bounds[i]
        capacity = seg_hi - seg_lo
        total = float(sum(widths[buckets[i]].tolist())) if buckets[i] else 0.0
        while buckets[i] and total > capacity + 1e-9:
            moved = buckets[i].pop()
            buckets[i + 1].insert(0, moved)
            total -= widths[moved]
    return [
        (bucket, seg_lo, seg_hi)
        for bucket, (seg_lo, seg_hi) in zip(buckets, bounds)
    ]


def _fence_group_anchors_oracle(design, model, fixed_anchors):
    core = design.core
    chip_w = core.width
    eps = 1e-9 * max(core.site_width, 1.0)
    membership = design.fence_index_by_cell_id()
    var_groups = np.full(len(model.subcells), -1, dtype=np.intp)
    for var, sub in enumerate(model.subcells):
        var_groups[var] = membership.get(sub.cell.id, -1)
    group_anchors = {}
    for g in sorted(set(var_groups.tolist())):
        per_row = {}
        for row in sorted(model.row_sequence):
            blocked = list(fixed_anchors.get(row, ()))
            if g >= 0:
                spans = [
                    (lo - core.xl, hi - core.xl)
                    for lo, hi in design.fences[g].row_spans(core, row)
                ]
                prev = 0.0
                for lo, hi in spans:
                    if lo > prev + eps:
                        blocked.append((prev, lo))
                    prev = max(prev, hi)
                if prev < chip_w - eps:
                    blocked.append((prev, chip_w))
                if not spans:
                    blocked = [(0.0, chip_w)]
            else:
                for fence in design.fences:
                    blocked.extend(
                        (lo - core.xl, hi - core.xl)
                        for lo, hi in fence.row_overlap_spans(core, row)
                    )
            if not blocked:
                continue
            blocked.sort()
            merged = []
            for lo, hi in blocked:
                if merged and lo <= merged[-1][1] + eps:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            per_row[row] = merged
        group_anchors[g] = per_row
    return var_groups, group_anchors
