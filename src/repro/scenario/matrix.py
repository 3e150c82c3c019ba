"""The fuzz-oracle configuration matrix, generated from the spec.

:func:`repro.fuzz.oracle.oracle_configs` used to hand-maintain its
~16-entry differential matrix; it now consumes :func:`oracle_matrix`,
whose points are expanded through
:meth:`~repro.scenario.spec.ScenarioSpec.enumerate_valid` on
:data:`~repro.scenario.specs.LEGALIZER_SPEC` — so an invalid combination
can never enter the matrix, and :func:`matrix_self_check` (run by CI's
``repro spec check``) fails the build when a new ``LegalizerConfig``
knob is neither swept by a point, pinned by the oracle base, nor
explicitly exempted with a reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.resilience import ResilienceConfig
from repro.scenario.specs import LEGALIZER_SPEC


@dataclass(frozen=True)
class OraclePoint:
    """One differential-oracle configuration.

    ``overrides`` are the knobs this point changes relative to the
    oracle's base config (tight tolerances + single-component shards);
    ``group`` is its comparison class (``identity`` must match the
    baseline bit-for-bit, ``tolerance`` within solver tolerance,
    ``sliced`` the fence-slice refinement).  ``pseudo`` marks points the oracle runner
    executes specially (setup-reuse rerun, fence slicing) rather than as
    a plain extra configuration.
    """

    name: str
    group: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    pseudo: bool = False


def _inject(*rungs: str) -> ResilienceConfig:
    return ResilienceConfig(inject={"*": tuple(rungs)}, safe_iteration_factor=1.0)


def _one(axes: Mapping[str, Sequence[Any]]) -> Dict[str, Any]:
    """Expand *axes* expecting exactly one surviving valid point."""
    points = LEGALIZER_SPEC.enumerate_valid(axes)
    if len(points) != 1:
        raise AssertionError(
            f"oracle axes {axes!r} expanded to {len(points)} valid points, "
            "expected exactly 1"
        )
    return points[0]


#: (name, axes, group) rows expanded one-factor-at-a-time.
_ONE_FACTOR: Tuple[Tuple[str, Dict[str, Tuple[Any, ...]], str], ...] = (
    ("merged_shards", {"min_shard_variables": (256,)}, "tolerance"),
    ("monolithic", {"shard": (False,)}, "tolerance"),
)

#: Escalation-ladder rungs forced by fault injection; each run must
#: still land on the same QP optimum (tolerance group).
_LADDER: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("inject_safe", ("mmsim",)),
    ("inject_psor", ("mmsim", "mmsim_safe")),
    ("inject_lemke", ("mmsim", "mmsim_safe", "psor")),
)

#: Knobs the oracle base pins for every point (tight tolerances so
#: group comparisons are meaningful; single-component shards so every
#: shard stops on its own).
BASE_OVERRIDDEN = frozenset(
    {
        "lam",
        "tol",
        "residual_tol",
        "max_iterations",
        "min_shard_variables",
        "resilience",
    }
)

#: Knobs deliberately not swept by the matrix, with the reason — a new
#: LegalizerConfig field must land here, in BASE_OVERRIDDEN, or in some
#: point's overrides, or matrix_self_check fails the build.
MATRIX_EXEMPT: Dict[str, str] = {
    "beta": "splitting parameter: changing it changes the iteration, not "
            "the optimum; covered by Theorem-2 unit tests",
    "theta": "splitting parameter: same as beta",
    "balance_rows": "extension that changes the target placement — no "
                    "differential group applies",
    "enforce_right_boundary": "extension that changes the QP itself — no "
                              "differential group applies",
}


def oracle_matrix() -> List[OraclePoint]:
    """The live oracle matrix, baseline first."""
    matrix: List[OraclePoint] = [OraclePoint("baseline", "baseline")]
    matrix.extend(
        OraclePoint(name, group, _one(axes))
        for name, axes, group in _ONE_FACTOR
    )
    for name, rungs in _LADDER:
        point = _one({"resilience": (_inject(*rungs),)})
        matrix.append(OraclePoint(name, "tolerance", point))
    # The blocked convergence-check cadence on the default flow.
    matrix.append(
        OraclePoint(
            "fused_kernel", "tolerance", _one({"kernel_backend": ("fused",)})
        )
    )
    matrix.append(OraclePoint("reuse", "identity", {}, pseudo=True))
    matrix.append(OraclePoint("fence_slices", "sliced", {}, pseudo=True))
    return matrix


def matrix_self_check() -> List[str]:
    """Consistency problems in the generated matrix (empty = healthy).

    Verifies that every point validates against the legalizer spec,
    that the baseline leads, that names are unique, that every
    ``LegalizerConfig`` knob is swept / base-pinned / exempted, and
    that the matrix agrees name-for-name and group-for-group with the
    fuzz harness's live :func:`repro.fuzz.oracle.oracle_configs` list.
    """
    problems: List[str] = []
    matrix = oracle_matrix()

    names = [p.name for p in matrix]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        problems.append(f"duplicate oracle point names: {dupes}")
    if not matrix or matrix[0].name != "baseline" or matrix[0].overrides:
        problems.append(
            "the oracle matrix must start with the empty-override "
            "baseline (run_oracle_design indexes it)"
        )
    for point in matrix:
        for violation in LEGALIZER_SPEC.validate(dict(point.overrides)):
            problems.append(f"point {point.name!r} invalid: {violation}")
        if point.group not in ("baseline", "identity", "tolerance", "sliced"):
            problems.append(
                f"point {point.name!r} has unknown group {point.group!r}"
            )

    swept = set()
    for point in matrix:
        swept.update(point.overrides)
    for name in LEGALIZER_SPEC.variables:
        covered = (
            name in swept or name in BASE_OVERRIDDEN or name in MATRIX_EXEMPT
        )
        if not covered:
            problems.append(
                f"LegalizerConfig knob {name!r} is not swept by any oracle "
                "point, not pinned by the oracle base, and not exempted in "
                "repro.scenario.matrix.MATRIX_EXEMPT — add oracle coverage "
                "or an exemption with a reason"
            )
    for name in MATRIX_EXEMPT:
        if name not in LEGALIZER_SPEC.variables:
            problems.append(
                f"MATRIX_EXEMPT names unknown knob {name!r}"
            )

    from repro.fuzz.oracle import OracleOptions, oracle_configs

    live = [(n, g) for n, _, g in oracle_configs(OracleOptions())]
    generated = [(p.name, p.group if p.name != "baseline" else "baseline")
                 for p in matrix]
    if live != generated:
        problems.append(
            "fuzz.oracle.oracle_configs disagrees with the generated "
            f"matrix: live={live!r} generated={generated!r}"
        )
    return problems


__all__ = [
    "BASE_OVERRIDDEN",
    "MATRIX_EXEMPT",
    "OraclePoint",
    "matrix_self_check",
    "oracle_matrix",
]
