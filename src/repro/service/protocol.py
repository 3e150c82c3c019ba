"""The service wire protocol: JSON request/response dataclasses + codecs.

One request carries one design (in the :mod:`repro.io.jsonio` format,
``format_version`` 1) plus service directives; one response carries the
legalized positions, the run's headline metrics, and the warm-state cache
decision.  The protocol is deliberately transport-agnostic — the HTTP
server and the in-process tests share these codecs — and versioned
separately from the design format so either can evolve alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.core.legalizer import LegalizationResult, LegalizerConfig
from repro.io.jsonio import design_from_dict, design_to_dict
from repro.netlist.design import Design
from repro.scenario.spec import ConfigVar, Range, ScenarioSpec, format_violations
from repro.scenario.specs import LEGALIZER_SPEC

#: Bump on incompatible request/response layout changes.
PROTOCOL_VERSION = 1

#: LegalizerConfig fields a request may override.  Everything solver- or
#: flow-visible is allowed; the object-valued resilience hook is not
#: expressible over the wire.
_CONFIG_FIELDS = frozenset(
    f.name for f in fields(LegalizerConfig) if f.name != "resilience"
)

#: Typed shape of a LegalizeResponse payload: ``from_dict`` rejects
#: wrongly typed values (a bool ``iterations``, a string ``ok``) as
#: :class:`ProtocolError` instead of silently constructing a response
#: that breaks downstream arithmetic.
_RESPONSE_SPEC = ScenarioSpec(
    "response",
    [
        ConfigVar("ok", (bool,), False, "Whether the run succeeded."),
        ConfigVar("key", (str,), "", "Warm-state cache key."),
        ConfigVar("design_name", (str,), "", "Name of the design."),
        ConfigVar("cache", (str,), "miss", "Warm-state store decision."),
        ConfigVar("warm_start", (str,), "gp", "How the MMSIM was seeded."),
        ConfigVar(
            "warm_start_rejected", (str,), None,
            "Why an offered state was rejected.", nullable=True,
        ),
        ConfigVar("converged", (bool,), False, "MMSIM convergence flag."),
        ConfigVar(
            "iterations", (int,), 0,
            "Primary MMSIM sweeps, maximum over shards.", Range(0),
        ),
        ConfigVar("num_cells", (int,), 0, "Cells legalized.", Range(0)),
        ConfigVar(
            "num_illegal", (int,), 0, "Cells the audit flagged.", Range(0)
        ),
        ConfigVar("audit_clean", (bool,), False, "Legality audit verdict."),
        ConfigVar(
            "runtime_seconds", (float,), 0.0, "Wall-clock solve time.",
            Range(0.0),
        ),
        ConfigVar(
            "stage_seconds", (dict,), {}, "Per-stage timing breakdown."
        ),
        ConfigVar("summary", (str,), "", "One-line human summary."),
        ConfigVar(
            "positions", (list,), [], "Legalized cell positions."
        ),
        ConfigVar(
            "error", (str,), None,
            "Failure description when ok is false.", nullable=True,
        ),
    ],
)


class ProtocolError(ValueError):
    """A request or response payload that does not parse."""


@dataclass
class LegalizeRequest:
    """One design submitted for legalization.

    ``key`` names the warm-state cache slot (defaults to the design's
    name); ``config`` holds :class:`LegalizerConfig` field overrides;
    ``deadline_seconds`` bounds the server-side wait (queue + solve);
    ``store_state=False`` opts the run out of populating the cache;
    ``warm=False`` opts it out of *consuming* a cached state (the run is
    forced cold but may still store its result).
    """

    design: Design
    key: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)
    deadline_seconds: Optional[float] = None
    store_state: bool = True
    warm: bool = True

    @property
    def cache_key(self) -> str:
        return self.key if self.key is not None else self.design.name

    def legalizer_config(self) -> LegalizerConfig:
        return LegalizerConfig(**self.config)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "design": design_to_dict(self.design),
            "key": self.key,
            "config": dict(self.config),
            "deadline_seconds": self.deadline_seconds,
            "store_state": self.store_state,
            "warm": self.warm,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LegalizeRequest":
        if not isinstance(data, dict):
            raise ProtocolError("request body must be a JSON object")
        version = data.get("protocol_version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {version!r}")
        if "design" not in data:
            raise ProtocolError("request is missing 'design'")
        config = data.get("config") or {}
        if not isinstance(config, dict):
            raise ProtocolError("'config' must be an object")
        bad_keys = [k for k in config if not isinstance(k, str)]
        if bad_keys:
            raise ProtocolError(
                f"config field names must be strings, got {bad_keys!r}"
            )
        unknown = set(config) - _CONFIG_FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown config fields: {sorted(unknown)}"
            )
        # Typed value + cross-field validation against the legalizer
        # spec, *before* the (expensive) design parse and before the
        # worker thread can turn a bad value into a 500: the violation
        # text names the offending field and matches what the
        # LegalizerConfig constructor and the CLI report.
        violations = LEGALIZER_SPEC.validate(config)
        if violations:
            raise ProtocolError(
                f"invalid config: {format_violations(violations)}"
            )
        deadline = data.get("deadline_seconds")
        if deadline is not None:
            deadline = float(deadline)
            if deadline <= 0:
                raise ProtocolError("deadline_seconds must be positive")
        try:
            design = design_from_dict(data["design"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad design payload: {exc}") from exc
        key = data.get("key")
        if key is not None and not isinstance(key, str):
            raise ProtocolError("'key' must be a string")
        return cls(
            design=design,
            key=key,
            config=dict(config),
            deadline_seconds=deadline,
            store_state=bool(data.get("store_state", True)),
            warm=bool(data.get("warm", True)),
        )


@dataclass
class LegalizeResponse:
    """The outcome of one legalization request.

    ``cache`` records the warm-state store decision: ``"hit"`` (cached
    state accepted and used), ``"stale"`` (cached state found but
    rejected by the fingerprint/dimension guard — the reason is in
    ``warm_start_rejected``), ``"miss"`` (nothing cached under the key),
    or ``"bypass"`` (the request opted out with ``warm=False``).
    """

    ok: bool
    key: str
    design_name: str
    cache: str = "miss"
    warm_start: str = "gp"
    warm_start_rejected: Optional[str] = None
    converged: bool = False
    iterations: int = 0
    num_cells: int = 0
    num_illegal: int = 0
    audit_clean: bool = False
    runtime_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    summary: str = ""
    positions: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None

    @classmethod
    def from_result(
        cls,
        request: LegalizeRequest,
        result: LegalizationResult,
        cache: str,
    ) -> "LegalizeResponse":
        return cls(
            ok=True,
            key=request.cache_key,
            design_name=result.design_name,
            cache=cache,
            warm_start=result.warm_start,
            warm_start_rejected=result.warm_start_rejected,
            converged=result.converged,
            iterations=result.iterations,
            num_cells=result.num_cells,
            num_illegal=result.num_illegal,
            audit_clean=result.audit_clean,
            runtime_seconds=result.runtime,
            stage_seconds=dict(result.stage_seconds),
            summary=result.summary(),
            positions=positions_payload(request.design),
        )

    @classmethod
    def failure(
        cls, request: Optional[LegalizeRequest], error: str
    ) -> "LegalizeResponse":
        return cls(
            ok=False,
            key=request.cache_key if request else "",
            design_name=request.design.name if request else "",
            error=error,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "ok": self.ok,
            "key": self.key,
            "design_name": self.design_name,
            "cache": self.cache,
            "warm_start": self.warm_start,
            "warm_start_rejected": self.warm_start_rejected,
            "converged": self.converged,
            "iterations": self.iterations,
            "num_cells": self.num_cells,
            "num_illegal": self.num_illegal,
            "audit_clean": self.audit_clean,
            "runtime_seconds": self.runtime_seconds,
            "stage_seconds": self.stage_seconds,
            "summary": self.summary,
            "positions": self.positions,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LegalizeResponse":
        if not isinstance(data, dict):
            raise ProtocolError("response body must be a JSON object")
        version = data.get("protocol_version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {version!r}")
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        violations = _RESPONSE_SPEC.validate(kwargs)
        if violations:
            raise ProtocolError(
                f"invalid response: {format_violations(violations)}"
            )
        for required in ("ok", "key", "design_name"):
            if required not in kwargs:
                raise ProtocolError(f"response is missing {required!r}")
        return cls(**kwargs)


def positions_payload(design: Design) -> List[Dict[str, Any]]:
    """The legalized placement of *design* as plain dictionaries."""
    return [
        {
            "name": c.name,
            "x": c.x,
            "y": c.y,
            "flipped": c.flipped,
            "row_index": c.row_index,
        }
        for c in design.cells
    ]


def apply_positions(design: Design, positions: List[Dict[str, Any]]) -> None:
    """Write a response's positions back onto a local copy of the design.

    Every entry must name a cell of *design*; cells absent from
    *positions* are left untouched (the server always returns all of
    them, so a partial list indicates a protocol mismatch and raises).
    """
    by_name = {c.name: c for c in design.cells}
    for entry in positions:
        cell = by_name.get(entry["name"])
        if cell is None:
            raise ProtocolError(
                f"position for unknown cell {entry['name']!r}"
            )
        cell.x = entry["x"]
        cell.y = entry["y"]
        cell.flipped = bool(entry.get("flipped", False))
        row_index = entry.get("row_index")
        if row_index is not None:
            cell.row_index = row_index
