"""Typed legality-violation records.

The checker in :mod:`repro.legality.checker` never mutates the design; it
returns a :class:`LegalityReport` listing every violation it found, each as
a structured record that tests and benchmarks can assert on precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List


class ViolationKind(Enum):
    """The four legality constraints of the paper's problem statement,
    plus the fence-region constraint of the ISPD-2015 target benchmarks."""

    OUT_OF_CORE = "out_of_core"          # constraint (1): inside chip region
    OFF_SITE = "off_site"                # constraint (2): on a placement site
    OFF_ROW = "off_row"                  # constraint (2): aligned to a row
    OVERLAP = "overlap"                  # constraint (3): non-overlapping
    RAIL_MISMATCH = "rail_mismatch"      # constraint (4): power-rail aligned
    FENCE = "fence"                      # fence region: members in, others out


@dataclass(frozen=True)
class Violation:
    """One legality violation.

    ``cell_id`` is the offending cell; ``other_id`` is set for overlaps
    (the lower id of the pair is reported as ``cell_id``).  ``amount`` is a
    kind-specific magnitude: overlap area, off-grid distance, or the
    out-of-core excursion distance.
    """

    kind: ViolationKind
    cell_id: int
    other_id: int = -1
    amount: float = 0.0
    message: str = ""


@dataclass
class LegalityReport:
    """Outcome of a full legality check."""

    violations: List[Violation] = field(default_factory=list)
    num_cells_checked: int = 0
    #: Cells whose per-cell checks (containment, alignment, rails) ran;
    #: the array pre-pass cleared the rest — the ``audit`` span's
    #: ``flagged_cells`` attribute.
    num_flagged: int = 0

    @property
    def is_legal(self) -> bool:
        return not self.violations

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def count_by_kind(self) -> Dict[ViolationKind, int]:
        counts: Dict[ViolationKind, int] = {}
        for v in self.violations:
            counts[v.kind] = counts.get(v.kind, 0) + 1
        return counts

    def violating_cell_ids(self) -> List[int]:
        """Sorted unique ids of all cells involved in any violation."""
        ids = set()
        for v in self.violations:
            ids.add(v.cell_id)
            if v.other_id >= 0:
                ids.add(v.other_id)
        return sorted(ids)

    def summary(self) -> str:
        if self.is_legal:
            return f"LEGAL ({self.num_cells_checked} cells)"
        parts = ", ".join(
            f"{kind.value}={count}" for kind, count in sorted(
                self.count_by_kind().items(), key=lambda kv: kv[0].value
            )
        )
        return (
            f"ILLEGAL ({len(self.violations)} violations over "
            f"{len(self.violating_cell_ids())} cells: {parts})"
        )
