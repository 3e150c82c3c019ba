"""The ``repro sweep`` campaign runner.

A campaign is a small JSON (or YAML, when PyYAML is importable) *axes
file* mapping knob names to candidate value lists, e.g.::

    {
        "shard": [true, false],
        "beta": [0.5, 1.0],
        "gen.scale": [0.01, 0.02]
    }

:func:`run_sweep` expands it through
:meth:`~repro.scenario.spec.ScenarioSpec.enumerate_valid` on
:data:`~repro.scenario.specs.SWEEP_SPEC` — invalid points
(``beta=1.0`` above, outside Theorem 2's open interval) are pruned, not
run and not errored — then legalizes a fresh benchmark build per
surviving point under its own telemetry session, and writes a JSONL
report: one ``campaign`` header record plus one ``point`` record per
point carrying the result metrics and the telemetry counters.
``dry_run`` writes the plan (the valid lattice) without solving
anything.

Knobs with a ``gen.`` prefix parameterize the benchmark build
(:func:`repro.benchgen.make_benchmark`); everything else overrides
:class:`~repro.core.legalizer.LegalizerConfig` defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO

from repro.scenario.specs import SWEEP_SPEC


@dataclass
class SweepOptions:
    """Campaign-level settings (the axes file supplies the lattice)."""

    #: Paper benchmark profile every point builds from.
    benchmark: str = "fft_2"
    #: Default build scale / seed; ``gen.scale`` / ``gen.seed`` axes
    #: override them per point.
    scale: float = 0.02
    seed: int = 0
    #: JSONL report path (None = don't write a file).
    out: Optional[str] = None
    #: Plan only: enumerate and report the valid lattice, solve nothing.
    dry_run: bool = False
    #: Cap on executed points (None = all valid points).
    limit: Optional[int] = None


@dataclass
class SweepSummary:
    """What a campaign did, for callers and the CLI exit path."""

    lattice_size: int
    valid_points: int
    records: List[Dict[str, Any]] = field(default_factory=list)
    ok: int = 0
    failed: int = 0
    planned: int = 0
    out: Optional[str] = None

    def summary(self) -> str:
        text = (
            f"sweep: {self.valid_points}/{self.lattice_size} lattice points "
            f"valid"
        )
        if self.planned:
            text += f", {self.planned} planned (dry run)"
        else:
            text += f", {self.ok} ok, {self.failed} failed"
        if self.out:
            text += f" -> {self.out}"
        return text


def load_axes(path: str) -> Dict[str, List[Any]]:
    """Read an axes file (JSON always; YAML when PyYAML is importable)."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env without yaml
            raise ValueError(
                f"axes file {path!r} is YAML but PyYAML is not installed; "
                "use a JSON axes file instead"
            ) from exc
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, Mapping):
        raise ValueError(
            f"axes file {path!r} must be a mapping of knob name -> value "
            f"list, got {type(data).__name__}"
        )
    axes: Dict[str, List[Any]] = {}
    for name, values in data.items():
        if isinstance(values, (str, bytes)) or not isinstance(
            values, Sequence
        ):
            raise ValueError(
                f"axis {name!r} must be a list of values, got {values!r}"
            )
        axes[str(name)] = list(values)
    return axes


def _split_point(
    point: Mapping[str, Any]
) -> "tuple[Dict[str, Any], Dict[str, Any]]":
    gen = {
        name[len("gen."):]: value
        for name, value in point.items()
        if name.startswith("gen.")
    }
    leg = {
        name: value
        for name, value in point.items()
        if not name.startswith("gen.")
    }
    return leg, gen


def _metric_values(snapshot: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    return {
        name: snap.get("value", snap.get("count", snap))
        for name, snap in snapshot.items()
    }


def _execute_point(
    index: int,
    point: Mapping[str, Any],
    opts: SweepOptions,
) -> Dict[str, Any]:
    from repro import telemetry
    from repro.benchgen import make_benchmark
    from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
    from repro.telemetry import solver_iteration_counts

    leg_overrides, gen_overrides = _split_point(point)
    gen_args = {"scale": opts.scale, "seed": opts.seed}
    gen_args.update(gen_overrides)
    record: Dict[str, Any] = {
        "record": "point",
        "index": index,
        "overrides": dict(point),
    }
    try:
        design = make_benchmark(opts.benchmark, **gen_args)
        config = LegalizerConfig(**leg_overrides)
        with telemetry.session() as tel:
            result = MMSIMLegalizer(config).legalize(design)
        record["status"] = "ok"
        record["result"] = {
            "design": result.design_name,
            "num_cells": result.num_cells,
            "converged": result.converged,
            "iterations": result.iterations,
            "num_illegal": result.num_illegal,
            "audit_clean": result.audit_clean,
            "runtime_seconds": result.runtime,
            "qp_objective": result.qp_objective,
            "escalations": len(result.solver_escalations),
            "displacement_sites": (
                result.displacement.total_manhattan_sites
                if result.displacement is not None
                else None
            ),
            "delta_hpwl_percent": (
                result.wirelength.delta_hpwl_percent
                if result.wirelength is not None
                else None
            ),
        }
        record["telemetry"] = {
            "metrics": _metric_values(tel.metrics.snapshot()),
            "solver_iterations": solver_iteration_counts(
                tel.events.events() if tel.events is not None else []
            ),
        }
    except Exception as exc:  # noqa: BLE001 — one bad point must not
        # kill the campaign; the record carries the failure.
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def run_sweep(
    axes: Mapping[str, Sequence[Any]],
    opts: Optional[SweepOptions] = None,
    progress: Optional[TextIO] = None,
) -> SweepSummary:
    """Expand *axes* and run (or plan) the campaign.

    Raises ``ValueError`` for unknown axis names or ill-typed axis
    values (via ``enumerate_valid``); points with a domain-invalid
    value are silently pruned from the lattice.
    """
    opts = opts or SweepOptions()
    points = SWEEP_SPEC.enumerate_valid(axes)
    lattice_size = 1
    for values in axes.values():
        lattice_size *= max(len(values), 1)
    summary = SweepSummary(
        lattice_size=lattice_size, valid_points=len(points), out=opts.out
    )
    if opts.limit is not None:
        points = points[: opts.limit]
    header: Dict[str, Any] = {
        "record": "campaign",
        "spec": SWEEP_SPEC.name,
        "benchmark": opts.benchmark,
        "scale": opts.scale,
        "seed": opts.seed,
        "axes": {name: list(values) for name, values in axes.items()},
        "lattice_size": lattice_size,
        "valid_points": summary.valid_points,
        "executed_points": len(points),
        "dry_run": opts.dry_run,
    }
    summary.records.append(header)
    for index, point in enumerate(points):
        if opts.dry_run:
            record = {
                "record": "point",
                "index": index,
                "status": "planned",
                "overrides": dict(point),
            }
            summary.planned += 1
        else:
            record = _execute_point(index, point, opts)
            if record["status"] == "ok":
                summary.ok += 1
            else:
                summary.failed += 1
        summary.records.append(record)
        if progress is not None:
            status = record["status"]
            progress.write(
                f"sweep point {index + 1}/{len(points)}: {status} "
                f"{record['overrides']}\n"
            )
            progress.flush()
    if opts.out:
        with open(opts.out, "w") as fh:
            for record in summary.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return summary


__all__ = ["SweepOptions", "SweepSummary", "load_axes", "run_sweep"]
