"""The service wire protocol: JSON request/response dataclasses + codecs.

One request carries one design plus service directives; one response
carries the legalized positions, the run's headline metrics, and the
warm-state cache decision.  The design keeps the :mod:`repro.io.jsonio`
layout (``format_version`` 1) for its core, masters, nets and fences,
but its cells, like the response's positions, travel as one object of
columns in ``design.cells`` order: names as JSON string lists, numbers
as base64 of little-endian arrays (float64 coordinates, uint8 0/1 flags,
int64 row indices with -1 for none), so every coordinate crosses the
wire bit for bit and neither side parses one JSON object per cell.  The
protocol is deliberately transport-agnostic — the HTTP server and the
in-process tests share these codecs — and versioned separately from the
design format so either can evolve alone.
"""

from __future__ import annotations

import base64
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.legalizer import LegalizationResult, LegalizerConfig
from repro.io.jsonio import design_envelope, design_from_envelope
from repro.netlist.cell import CellInstance, CellMaster
from repro.netlist.design import Design
from repro.scenario.spec import ConfigVar, Range, ScenarioSpec, format_violations
from repro.scenario.specs import LEGALIZER_SPEC

#: Bump on incompatible request/response layout changes.
PROTOCOL_VERSION = 2

#: Column dtypes.  Explicitly little-endian, whatever the host's order.
_F64 = np.dtype("<f8")
_U8 = np.dtype("u1")
_I64 = np.dtype("<i8")

#: ``row_index`` of a cell without one.
_NO_ROW = -1

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
            "positions", (dict,), {},
            "Legalized cell positions, as columns.",
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
            "design": design_envelope(
                self.design, _cell_columns(self.design.cells)
            ),
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
        config = data.get("config")
        if config is None:
            config = {}
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
        deadline = _deadline_seconds(data.get("deadline_seconds"))
        store_state = data.get("store_state", True)
        warm = data.get("warm", True)
        for name, value in (("store_state", store_state), ("warm", warm)):
            if not isinstance(value, bool):
                raise ProtocolError(
                    f"'{name}' must be a JSON boolean, got {value!r}"
                )
        key = data.get("key")
        if key is not None and not isinstance(key, str):
            raise ProtocolError("'key' must be a string")
        envelope = data["design"]
        if not isinstance(envelope, dict):
            raise ProtocolError("'design' must be an object")
        try:
            design = design_from_envelope(
                envelope, _cells_from_columns(envelope.get("cells"))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad design payload: {exc}") from exc
        return cls(
            design=design,
            key=key,
            config=dict(config),
            deadline_seconds=deadline,
            store_state=store_state,
            warm=warm,
        )


def _deadline_seconds(value: Any) -> Optional[float]:
    """A request's ``deadline_seconds``: null, or a finite positive
    number (not a bool, which JSON would otherwise read as 0 or 1 s)."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond float range
            seconds = float(value)
            if 0 < seconds < math.inf:
                return seconds
    raise ProtocolError(
        "deadline_seconds must be null or a finite positive number, "
        f"got {value!r}"
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
            "positions": _position_columns(self.positions),
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
        if "positions" in kwargs:
            kwargs["positions"] = _positions_from_columns(kwargs["positions"])
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

    The server answers one entry per cell, in ``design.cells`` order, so
    a missing, extra or misnamed entry indicates a protocol mismatch (or
    the answer to another design) and raises :class:`ProtocolError`
    before any cell is written.
    """
    cells = design.cells
    if len(positions) != len(cells):
        raise ProtocolError(
            f"{len(positions)} positions for a design of {len(cells)} cells"
        )
    for i, (entry, cell) in enumerate(zip(positions, cells)):
        if entry["name"] != cell.name:
            raise ProtocolError(
                f"position {i} is for cell {entry['name']!r}, but cell {i} "
                f"of the design is {cell.name!r}"
            )
    for entry, cell in zip(positions, cells):
        cell.x = entry["x"]
        cell.y = entry["y"]
        cell.flipped = bool(entry.get("flipped", False))
        row_index = entry.get("row_index")
        if row_index is not None:
            cell.row_index = row_index


# ---------------------------------------------------------------- columns
def _pack(values: Sequence[Any], dtype: np.dtype) -> str:
    """*values* as base64 of *dtype* bytes."""
    raw = np.asarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _pack_flags(values: Sequence[Any]) -> str:
    return _pack(np.asarray(values, dtype=bool), _U8)


def _cell_columns(cells: Sequence[CellInstance]) -> Dict[str, Any]:
    """The request's ``design.cells``: one column per cell field."""
    return {
        "name": [c.name for c in cells],
        "master": [c.master.name for c in cells],
        "gp_x": _pack([c.gp_x for c in cells], _F64),
        "gp_y": _pack([c.gp_y for c in cells], _F64),
        "x": _pack([c.x for c in cells], _F64),
        "y": _pack([c.y for c in cells], _F64),
        "fixed": _pack_flags([c.fixed for c in cells]),
        "flipped": _pack_flags([c.flipped for c in cells]),
    }


def _position_columns(positions: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The response's ``positions``: one column per position field."""
    return {
        "name": [p["name"] for p in positions],
        "x": _pack([p["x"] for p in positions], _F64),
        "y": _pack([p["y"] for p in positions], _F64),
        "flipped": _pack_flags([p.get("flipped", False) for p in positions]),
        "row_index": _pack(
            [
                _NO_ROW if p.get("row_index") is None else p["row_index"]
                for p in positions
            ],
            _I64,
        ),
    }


class _ColumnReader:
    """Reads one object of columns (``design.cells`` or ``positions``).

    Every column must hold one entry per name; each error names the
    table and the column.
    """

    def __init__(self, table: str, columns: Any) -> None:
        if not isinstance(columns, dict):
            raise ProtocolError(
                f"{table} must be an object of columns, "
                f"got {type(columns).__name__}"
            )
        self.table = table
        self.columns = columns
        self.names = self._strings("name")
        self.size = len(self.names)

    def error(self, column: str, problem: str) -> ProtocolError:
        return ProtocolError(f"{self.table}: column {column!r} {problem}")

    def _get(self, column: str) -> Any:
        if column not in self.columns:
            raise self.error(column, "is missing")
        return self.columns[column]

    def _strings(self, column: str) -> List[str]:
        values = self._get(column)
        if not isinstance(values, list) or not set(map(type, values)) <= {str}:
            raise self.error(column, "must be a list of strings")
        return values

    def strings(self, column: str) -> List[str]:
        values = self._strings(column)
        if len(values) != self.size:
            raise self.error(
                column, f"has {len(values)} entries for {self.size} names"
            )
        return values

    def array(self, column: str, dtype: np.dtype) -> np.ndarray:
        text = self._get(column)
        if not isinstance(text, str):
            raise self.error(column, "must be a base64 string")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise self.error(column, f"is not valid base64 ({exc})") from None
        want = self.size * dtype.itemsize
        if len(raw) != want:
            raise self.error(
                column,
                f"holds {len(raw)} bytes; {self.size} names need {want} "
                f"({dtype.name})",
            )
        return np.frombuffer(raw, dtype)

    def floats(self, column: str) -> List[float]:
        return self.array(column, _F64).tolist()

    def flags(self, column: str) -> List[bool]:
        values = self.array(column, _U8)
        if (values > 1).any():
            raise self.error(column, "holds a byte other than 0 or 1")
        return values.astype(bool).tolist()

    def rows(self, column: str) -> List[Optional[int]]:
        values = self.array(column, _I64)
        if (values < _NO_ROW).any():
            raise self.error(column, f"holds a row index below {_NO_ROW}")
        return [None if r == _NO_ROW else r for r in values.tolist()]


def _cells_from_columns(
    columns: Any,
) -> Callable[[Design, Dict[str, CellMaster]], None]:
    """The ``add_cells`` step of :func:`design_from_envelope` for a
    request's ``design.cells`` columns."""

    def add_cells(design: Design, masters: Dict[str, CellMaster]) -> None:
        table = _ColumnReader("design.cells", columns)
        try:
            cell_masters = [masters[name] for name in table.strings("master")]
        except KeyError as exc:
            raise table.error(
                "master", f"names unknown master {exc.args[0]!r}"
            ) from None
        for name, master, gp_x, gp_y, x, y, fixed, flipped in zip(
            table.names,
            cell_masters,
            table.floats("gp_x"),
            table.floats("gp_y"),
            table.floats("x"),
            table.floats("y"),
            table.flags("fixed"),
            table.flags("flipped"),
        ):
            cell = design.add_cell(name, master, gp_x, gp_y, fixed=fixed)
            cell.x = x
            cell.y = y
            cell.flipped = flipped

    return add_cells


def _positions_from_columns(columns: Any) -> List[Dict[str, Any]]:
    """A response's ``positions`` columns as one dict per cell."""
    table = _ColumnReader("positions", columns)
    return [
        {"name": name, "x": x, "y": y, "flipped": flipped, "row_index": row}
        for name, x, y, flipped, row in zip(
            table.names,
            table.floats("x"),
            table.floats("y"),
            table.flags("flipped"),
            table.rows("row_index"),
        )
    ]
