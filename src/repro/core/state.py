"""Persisted solver state for warm-started (ECO) re-legalization.

A :class:`LegalizationResult` carries the KKT LCP solution ``z = [y; r]``
that the MMSIM stage produced; feeding it back via
``legalize(design, warm_start_z=...)`` (or the CLI's ``--state PATH``) makes
an incremental re-run of the *same* design converge in about one sweep.

The failure mode this module exists to close: a persisted ``z`` silently
applied to a *different* design.  If the dimensions happen to differ the
sweep crashes midway; if they coincide (easy — add one cell, drop another)
the solver starts from a point assembled for another problem and the warm
start silently warps the iterate path.  A :class:`SolverState` therefore
pairs the vector with a **design fingerprint**: a SHA-256 over the design's
structure (core geometry, rail parity, and every cell's master/fixity, in
order).  GP *positions* are deliberately excluded — nudged positions are
exactly the ECO use case a warm start exists for — but anything that could
change the constraint layout or variable ordering is covered.

``load_solver_state`` also reads the legacy bare ``.npy`` format (a raw
array, no fingerprint); such states are only dimension-checked.  It reads
only ``z`` and the metadata from an ``.npz``, so an archive that carries
further arrays (older versions also wrote per-variable
``component_labels``) still loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netlist.design import Design

#: Bump when the persisted layout changes incompatibly.
STATE_VERSION = 1

#: Key of the JSON metadata entry inside the ``.npz`` archive.
_META_KEY = "meta"


class StaleWarmStart(UserWarning):
    """A warm-start state was rejected (dimension or fingerprint mismatch)."""


def design_fingerprint(design: Design) -> str:
    """SHA-256 over the structure that determines the KKT system layout.

    Covers the core geometry (rows, sites, pitches, origin, rail parity)
    and the ordered cell list (name, master width/height/rail, fixity).
    Excludes GP and working positions: position-only edits keep the
    variable/constraint dimensions compatible and are the intended
    warm-start scenario.  Excludes nets: they never enter the QP.
    """
    core = design.core
    h = hashlib.sha256()
    h.update(
        repr(
            (
                core.xl,
                core.yl,
                core.num_rows,
                core.row_height,
                core.num_sites,
                core.site_width,
                core.rails.bottom_rail_of_row_0.value,
            )
        ).encode()
    )
    for cell in design.cells:
        rail = cell.master.bottom_rail
        h.update(
            (
                f"{cell.name}|{cell.master.width!r}|{cell.master.height_rows}"
                f"|{rail.value if rail is not None else '-'}|{int(cell.fixed)}\n"
            ).encode()
        )
    # Fences shape the constraint layout (per-group anchors and shard
    # batching), so a fence edit must invalidate warm-start state.
    for fence in design.fences:
        h.update(
            repr(
                (fence.name, fence.rects, tuple(sorted(fence.members)))
            ).encode()
        )
    return h.hexdigest()


@dataclass
class SolverState:
    """A persisted KKT solution plus the identity of the design it solves."""

    z: np.ndarray
    fingerprint: Optional[str] = None
    num_variables: Optional[int] = None
    num_constraints: Optional[int] = None
    design_name: Optional[str] = None
    version: int = STATE_VERSION

    @classmethod
    def from_result(cls, design: Design, result) -> "SolverState":
        """Capture a :class:`LegalizationResult`'s solution for *design*."""
        if result.kkt_solution is None:
            raise ValueError("result carries no kkt_solution to persist")
        return cls(
            z=np.asarray(result.kkt_solution, dtype=float),
            fingerprint=design_fingerprint(design),
            num_variables=result.num_variables,
            num_constraints=result.num_constraints,
            design_name=design.name,
        )

    def matches(self, design: Design, expected_dim: Optional[int] = None) -> Optional[str]:
        """None when this state may warm-start *design*, else the reason not.

        ``expected_dim`` is the current run's ``n + m``; dimension mismatch
        is always a rejection.  A fingerprint mismatch rejects even when
        the dimensions coincide — that is the silent-warp case.
        """
        if expected_dim is not None and self.z.shape != (expected_dim,):
            return (
                f"state dimension {self.z.shape} does not match the design's "
                f"KKT system ({expected_dim},)"
            )
        if self.fingerprint is not None:
            current = design_fingerprint(design)
            if current != self.fingerprint:
                saved = f" (saved from {self.design_name!r})" if self.design_name else ""
                return (
                    f"design fingerprint mismatch{saved}: the persisted state "
                    "belongs to a structurally different design"
                )
        return None


def save_solver_state(path: str, state: SolverState) -> None:
    """Write *state* to ``path`` as an ``.npz`` archive (exact path, no
    extension appended — the CLI round-trips bare filenames).

    The write is **atomic**: the archive goes to a temporary file in the
    same directory, is fsynced, and then renamed over ``path`` with
    :func:`os.replace`.  A run interrupted mid-write (SIGKILL, disk full,
    power loss) therefore leaves either the previous state or the new
    one — never a truncated archive that would crash the next
    warm-started run's load.
    """
    meta = json.dumps(
        {
            "version": state.version,
            "fingerprint": state.fingerprint,
            "num_variables": state.num_variables,
            "num_constraints": state.num_constraints,
            "design_name": state.design_name,
        }
    )
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    arrays = {"z": state.z, _META_KEY: np.asarray(meta)}
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_solver_state(path: str) -> SolverState:
    """Read a solver state; accepts the legacy bare-``.npy`` format too."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    loaded = np.load(path, allow_pickle=False)
    if isinstance(loaded, np.ndarray):
        # Legacy format: a raw z vector with no identity attached.
        return SolverState(z=np.asarray(loaded, dtype=float))
    try:
        z = np.asarray(loaded["z"], dtype=float)
        meta = json.loads(str(loaded[_META_KEY]))
    finally:
        loaded.close()
    return SolverState(
        z=z,
        fingerprint=meta.get("fingerprint"),
        num_variables=meta.get("num_variables"),
        num_constraints=meta.get("num_constraints"),
        design_name=meta.get("design_name"),
        version=int(meta.get("version", STATE_VERSION)),
    )
