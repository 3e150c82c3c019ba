"""Free-site tracking across rows.

:class:`SiteMap` maintains, for every row, the set of free x-intervals,
and answers multi-row placement queries: "where, at site granularity, can a
cell spanning rows r..r+h-1 be placed nearest to x?".  It is the workhorse
of the Tetris-like allocation stage and of the greedy baselines.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry import Interval, IntervalSet
from repro.netlist.cell import CellInstance
from repro.rows.core_area import CoreArea


class SiteMap:
    """Per-row free-interval bookkeeping at site granularity.

    Internally intervals are kept in *site index* units (integers stored as
    floats), which makes snapping trivial and avoids floating-point drift
    when cells are repeatedly placed and removed.
    """

    def __init__(self, core: CoreArea) -> None:
        self.core = core
        self._rows: List[IntervalSet] = [
            IntervalSet([Interval(0.0, float(core.num_sites))])
            for _ in range(core.num_rows)
        ]

    # ------------------------------------------------------------------
    # Unit conversion
    # ------------------------------------------------------------------
    def sites_of_width(self, width: float) -> int:
        """Number of sites a cell of *width* occupies (rounded up)."""
        return max(1, int(math.ceil(width / self.core.site_width - 1e-9)))

    def x_to_site(self, x: float) -> float:
        """Continuous site coordinate of an x position."""
        return (x - self.core.xl) / self.core.site_width

    def site_to_x(self, site: float) -> float:
        return self.core.xl + site * self.core.site_width

    # ------------------------------------------------------------------
    # Occupation
    # ------------------------------------------------------------------
    def occupy(self, row: int, site_lo: int, num_sites: int) -> None:
        """Mark ``num_sites`` sites starting at ``site_lo`` in one row used."""
        self._rows[row].occupy(float(site_lo), float(site_lo + num_sites))

    def release(self, row: int, site_lo: int, num_sites: int) -> None:
        self._rows[row].release(float(site_lo), float(site_lo + num_sites))

    def block(self, row: int, site_lo: int, num_sites: int) -> None:
        """Mark sites used, tolerating overlap with already-used sites.

        For fixed-obstacle blocking: overlapping fixed cells are a legal
        input, so blocking is a union operation, not an exclusive claim.
        """
        self._rows[row].subtract(float(site_lo), float(site_lo + num_sites))

    def occupy_cell(self, cell: CellInstance, row: int, site_lo: int) -> None:
        """Occupy the footprint of *cell* with bottom row *row*."""
        n = self.sites_of_width(cell.width)
        for r in range(row, row + cell.height_rows):
            self.occupy(r, site_lo, n)

    def release_cell(self, cell: CellInstance, row: int, site_lo: int) -> None:
        n = self.sites_of_width(cell.width)
        for r in range(row, row + cell.height_rows):
            self.release(r, site_lo, n)

    def free_intervals(self, row: int) -> List[Interval]:
        return self._rows[row].intervals()

    def is_free(self, row: int, site_lo: int, num_sites: int) -> bool:
        if row < 0 or row >= self.core.num_rows:
            return False
        if site_lo < 0 or site_lo + num_sites > self.core.num_sites:
            return False
        return self._rows[row].covers(float(site_lo), float(site_lo + num_sites))

    def footprint_free(self, row: int, site_lo: int, num_sites: int, height_rows: int) -> bool:
        """Free across all rows of a multi-row footprint."""
        if row + height_rows > self.core.num_rows:
            return False
        return all(
            self.is_free(r, site_lo, num_sites) for r in range(row, row + height_rows)
        )

    def footprints_free(
        self,
        rows: np.ndarray,
        sites: np.ndarray,
        num_sites: np.ndarray,
        height_rows: np.ndarray,
    ) -> np.ndarray:
        """Array form of :meth:`footprint_free`: one answer per footprint.

        The free intervals of all rows are flattened into one sorted key
        array (``row * (num_sites + 1) + lo``), so each (footprint, row)
        pair is a single ``searchsorted`` for the last interval starting at
        or before its site — the same interval :meth:`IntervalSet.covers`
        bisects for.
        """
        core = self.core
        stride = float(core.num_sites + 1)
        keys: List[float] = []
        ends: List[float] = []
        for r, free in enumerate(self._rows):
            for iv in free:
                keys.append(r * stride + iv.lo)
                ends.append(iv.hi)
        if not keys:
            return np.zeros(len(rows), dtype=bool)
        key = np.array(keys)
        end = np.array(ends)
        ok = (
            (rows >= 0) & (rows + height_rows <= core.num_rows)
            & (sites >= 0) & (sites + num_sites <= core.num_sites)
        )
        owner, row = footprint_rows(np.flatnonzero(ok), rows, height_rows)
        row_base = row * stride
        at = np.searchsorted(key, row_base + sites[owner], side="right") - 1
        hit = np.maximum(at, 0)
        covered = (
            (at >= 0) & (key[hit] >= row_base)
            & (end[hit] >= sites[owner] + num_sites[owner])
        )
        ok[owner[~covered]] = False
        return ok

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nearest_fit_in_row(
        self, row: int, x: float, width: float, height_rows: int = 1
    ) -> Optional[int]:
        """Least-displacement site index for a footprint in a given bottom row.

        For single-row cells this is a direct interval query; for multi-row
        cells we scan candidate positions from the free intervals of the
        bottom row and validate against the upper rows.
        """
        n = self.sites_of_width(width)
        target = self.x_to_site(x)
        if height_rows == 1:
            pos = self._rows[row].nearest_fit(target, float(n))
            if pos is None:
                return None
            site = int(round(min(max(pos, 0.0), float(self.core.num_sites - n))))
            site = self._snap_feasible(row, site, n, target)
            return site
        return self._nearest_multirow_fit(row, target, n, height_rows)

    def _snap_feasible(self, row: int, site: int, n: int, target: float) -> Optional[int]:
        """Round a continuous fit to an integer site that is actually free."""
        for cand in (site, site - 1, site + 1):
            if self.is_free(row, cand, n):
                return cand
        # Fall back to scanning outward (rare: only at interval edges).
        for step in range(2, self.core.num_sites):
            for cand in (site - step, site + step):
                if self.is_free(row, cand, n):
                    return cand
        return None

    def _nearest_multirow_fit(
        self, row: int, target: float, n: int, height_rows: int
    ) -> Optional[int]:
        """Nearest site where all rows of the footprint are free.

        Strategy: intersect the free intervals of the involved rows, then
        pick the nearest integer site inside the intersection.
        """
        if row + height_rows > self.core.num_rows:
            return None
        merged: List[Interval] = self.free_intervals(row)
        for r in range(row + 1, row + height_rows):
            upper = self.free_intervals(r)
            merged = _intersect_interval_lists(merged, upper)
            if not merged:
                return None
        best: Optional[int] = None
        best_cost = float("inf")
        for iv in merged:
            lo = int(math.ceil(iv.lo - 1e-9))
            hi = int(math.floor(iv.hi + 1e-9)) - n
            if hi < lo:
                continue
            site = int(round(min(max(target, lo), hi)))
            site = min(max(site, lo), hi)
            cost = abs(site - target)
            if cost < best_cost:
                best_cost = cost
                best = site
        return best

    def nearest_fit(
        self,
        x: float,
        y: float,
        width: float,
        height_rows: int,
        candidate_rows: Iterable[int],
    ) -> Optional[Tuple[int, int, float]]:
        """Best (row, site, cost) over candidate bottom rows.

        Cost is the Manhattan displacement from ``(x, y)`` to the placed
        bottom-left corner.  Rows are assumed pre-filtered for rail
        correctness by the caller.
        """
        best: Optional[Tuple[int, int, float]] = None
        for row in candidate_rows:
            site = self.nearest_fit_in_row(row, x, width, height_rows)
            if site is None:
                continue
            px = self.site_to_x(site)
            py = self.core.row_y(row)
            cost = abs(px - x) + abs(py - y)
            if best is None or cost < best[2]:
                best = (row, site, cost)
        return best


def footprint_rows(cells: np.ndarray, bottom: np.ndarray, height_rows: np.ndarray):
    """One ``(owner, row)`` pair per row each footprint spans.

    ``cells`` indexes into the per-cell ``bottom`` and ``height_rows``
    arrays; the result lists each cell's rows bottom-up, cells in the
    order given.
    """
    counts = height_rows[cells]
    owner = np.repeat(cells, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return owner, bottom[owner] + (np.arange(len(owner)) - first)


def _intersect_interval_lists(a: List[Interval], b: List[Interval]) -> List[Interval]:
    """Intersection of two sorted disjoint interval lists (merge sweep)."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].lo, b[j].lo)
        hi = min(a[i].hi, b[j].hi)
        if hi > lo:
            out.append(Interval(lo, hi))
        if a[i].hi < b[j].hi:
            i += 1
        else:
            j += 1
    return out
