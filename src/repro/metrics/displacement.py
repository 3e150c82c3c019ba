"""Displacement metrics.

The paper reports total Manhattan displacement measured in *placement site
widths* (Table 2, "Total Disp. (sites)"), while the legalization objective
itself is the *quadratic* Euclidean displacement (Problem (1)).  Both are
provided, plus max/mean statistics useful for debugging outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.netlist.design import Design


@dataclass(frozen=True)
class DisplacementStats:
    """Aggregate displacement of all movable cells."""

    total_manhattan: float        # database units
    total_manhattan_sites: float  # site widths (the paper's unit)
    total_quadratic: float        # the QP objective Σ (Δx² + Δy²)
    max_manhattan: float
    mean_manhattan: float
    num_cells: int

    def __str__(self) -> str:
        return (
            f"disp(total={self.total_manhattan_sites:.1f} sites, "
            f"max={self.max_manhattan:.3g}, mean={self.mean_manhattan:.3g}, "
            f"quad={self.total_quadratic:.4g})"
        )


def displacement_stats(design: Design) -> DisplacementStats:
    """Compute displacement statistics for a design's movable cells.

    Totals are added left to right in cell order, as a running ``+=``
    would (not pairwise), so they do not depend on numpy's summation.
    """
    site_w = design.core.site_width
    cells = design.movable_cells
    n = len(cells)
    if not n:
        return DisplacementStats(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    dx = np.fromiter((c.x - c.gp_x for c in cells), float, n)
    dy = np.fromiter((c.y - c.gp_y for c in cells), float, n)
    d = np.abs(dx) + np.abs(dy)
    total = float(np.add.accumulate(d)[-1])
    return DisplacementStats(
        total_manhattan=total,
        total_manhattan_sites=total / site_w,
        total_quadratic=float(np.add.accumulate(dx * dx + dy * dy)[-1]),
        max_manhattan=max(0.0, float(d.max())),
        mean_manhattan=total / n,
        num_cells=n,
    )


def per_cell_displacements(design: Design) -> List[float]:
    """Manhattan displacement per movable cell (for histograms/plots)."""
    return [cell.displacement() for cell in design.movable_cells]


def quadratic_objective(design: Design) -> float:
    """The paper's Problem (1) objective: Σ (x−x′)² + (y−y′)²."""
    return sum(cell.displacement_sq() for cell in design.movable_cells)
