"""The benchmark's own output checks: legality, answer digests, displacement.

The legality check is written against the design's geometry alone and
does not import :mod:`repro.legality`: the program's checker is itself a
layer under test, so a rewrite of it must not be able to make a wrong
placement pass here.  It checks, for every movable cell:

* site alignment of x and row alignment of y;
* containment in the core;
* power-rail parity of even-height cells (their bottom row's rail must be
  the master's bottom rail, since flipping cannot fix them);
* no overlap with another movable cell or with a fixed cell (two fixed
  cells may overlap each other).

Positions are passed as arrays in ``design.cells`` order, so the same
check serves library answers (read off the design) and service answers
(read off the response).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Grid tolerance as a share of a site width / row height.
GRID_TOL = 1e-6


@dataclass(frozen=True)
class CellTable:
    """The static geometry of a design's cells as arrays."""

    width: np.ndarray
    height_rows: np.ndarray
    fixed: np.ndarray
    #: +1 VDD, -1 VSS, 0 none (bottom rail of the master).
    rail: np.ndarray
    names: tuple


def rail_code(rail) -> int:
    if rail is None:
        return 0
    return 1 if rail.value == "VDD" else -1


def cell_table(design) -> CellTable:
    cells = design.cells
    return CellTable(
        width=np.array([c.master.width for c in cells], dtype=float),
        height_rows=np.array([c.master.height_rows for c in cells], dtype=np.int64),
        fixed=np.array([c.fixed for c in cells], dtype=bool),
        rail=np.array([rail_code(c.master.bottom_rail) for c in cells], dtype=np.int8),
        names=tuple(c.name for c in cells),
    )


def design_positions(design):
    """Current ``(x, y, flipped)`` of every cell, in ``design.cells`` order."""
    cells = design.cells
    return (
        np.array([c.x for c in cells], dtype=float),
        np.array([c.y for c in cells], dtype=float),
        np.array([c.flipped for c in cells], dtype=bool),
    )


def response_positions(table: CellTable, positions: Sequence[dict]):
    """``(x, y, flipped)`` from a service response, checked against the
    submitted design's cell order."""
    if len(positions) != len(table.names):
        raise ValueError(
            f"response has {len(positions)} positions for "
            f"{len(table.names)} cells"
        )
    for entry, name in zip(positions, table.names):
        if entry["name"] != name:
            raise ValueError(
                f"response position for {entry['name']!r} where {name!r} "
                "was expected"
            )
    return (
        np.array([p["x"] for p in positions], dtype=float),
        np.array([p["y"] for p in positions], dtype=float),
        np.array([bool(p.get("flipped", False)) for p in positions], dtype=bool),
    )


def digest(x: np.ndarray, y: np.ndarray, flipped: np.ndarray) -> str:
    """Bitwise identity of an answer (any differing bit changes it)."""
    h = hashlib.sha256()
    for arr in (x, y, flipped):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def displacement_sites(
    design, gp_x: np.ndarray, gp_y: np.ndarray, x: np.ndarray, y: np.ndarray,
    fixed: np.ndarray,
) -> float:
    """Total Manhattan displacement of movable cells from GP, in sites."""
    movable = ~fixed
    total = np.abs(x - gp_x)[movable].sum() + np.abs(y - gp_y)[movable].sum()
    return float(total / design.core.site_width)


def _tolerance(pitch: float, *coords: float) -> float:
    # A coordinate assembled as origin + k * pitch carries rounding error
    # that grows with the magnitude of the origin.
    scale = max(abs(v) for v in coords + (pitch,))
    return max(GRID_TOL * pitch, 8.0 * sys.float_info.epsilon * scale)


def legality_violations(
    design, table: CellTable, x: np.ndarray, y: np.ndarray, limit: int = 5
) -> List[str]:
    """Up to *limit* human-readable violations of the placement ``(x, y)``;
    an empty list means legal."""
    if design.fences:
        raise ValueError("the benchmark's legality check does not model fences")
    core = design.core
    xh = core.xl + core.num_sites * core.site_width
    yh = core.yl + core.num_rows * core.row_height
    tol_x = _tolerance(core.site_width, core.xl, xh)
    tol_y = _tolerance(core.row_height, core.yl, yh)
    height = table.height_rows * core.row_height
    movable = ~table.fixed
    problems: List[str] = []

    def report(mask: np.ndarray, what: str) -> None:
        for i in np.flatnonzero(mask)[: max(0, limit - len(problems))]:
            problems.append(f"{table.names[i]}: {what} (x={x[i]!r}, y={y[i]!r})")

    sites = (x - core.xl) / core.site_width
    report(
        movable & (np.abs(sites - np.round(sites)) * core.site_width > tol_x),
        "x off the site grid",
    )
    rows_f = (y - core.yl) / core.row_height
    rows = np.round(rows_f).astype(np.int64)
    report(
        movable & (np.abs(rows_f - rows) * core.row_height > tol_y),
        "y off the row grid",
    )
    report(
        movable
        & (
            (x < core.xl - tol_x)
            | (x + table.width > xh + tol_x)
            | (y < core.yl - tol_y)
            | (y + height > yh + tol_y)
        ),
        "outside the core",
    )
    # Bottom rail of row r alternates from row 0's rail.
    rail0 = rail_code(core.rails.bottom_rail_of_row_0)
    row_rail = np.where(rows % 2 == 0, rail0, -rail0)
    even = (table.height_rows % 2 == 0) & (table.rail != 0)
    report(movable & even & (row_rail != table.rail), "even-height cell on a wrong-rail row")
    if len(problems) < limit:
        problems.extend(
            _overlaps(core, table, x, y, height, tol_x, limit - len(problems))
        )
    return problems


def _overlaps(core, table, x, y, height, tol_x, limit) -> List[str]:
    """Overlaps per row: sort each row's intervals by left edge and compare
    every interval with the furthest right edge seen before it."""
    # Rows a cell occupies: every row its [y, y + h) span covers.  Fixed
    # cells may sit off the row grid, so round their span outward.
    lo = np.floor((y - core.yl) / core.row_height + GRID_TOL).astype(np.int64)
    hi = np.ceil((y + height - core.yl) / core.row_height - GRID_TOL).astype(np.int64)
    lo = np.clip(lo, 0, core.num_rows)
    hi = np.clip(hi, 0, core.num_rows)
    span = np.maximum(hi - lo, 0)
    cell = np.repeat(np.arange(len(x)), span)
    row = np.repeat(lo, span) + (
        np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    )
    left = x[cell]
    right = left + table.width[cell]
    fixed = table.fixed[cell]
    order = np.lexsort((left, row))
    cell, row, left, right, fixed = (
        a[order] for a in (cell, row, left, right, fixed)
    )
    problems: List[str] = []
    bounds = np.flatnonzero(np.diff(row)) + 1
    for seg in np.split(np.arange(len(row)), bounds):
        if len(seg) < 2:
            continue
        # Furthest right edge among earlier intervals, over all cells and
        # over movable cells only (a fixed cell may overlap a fixed one).
        all_right = np.maximum.accumulate(right[seg])
        mov_right = np.maximum.accumulate(np.where(fixed[seg], -np.inf, right[seg]))
        prev_all = np.concatenate(([-np.inf], all_right[:-1]))
        prev_mov = np.concatenate(([-np.inf], mov_right[:-1]))
        reach = np.where(fixed[seg], prev_mov, prev_all)
        for k in np.flatnonzero(left[seg] < reach - tol_x):
            i = seg[k]
            problems.append(
                f"{table.names[cell[i]]}: overlaps another cell in row {row[i]} "
                f"(x={left[i]!r})"
            )
            if len(problems) >= limit:
                return problems
    return problems
