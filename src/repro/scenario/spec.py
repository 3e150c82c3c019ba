"""Declarative configuration specs: typed knobs with value domains.

The flow's configuration surface (``LegalizerConfig``, the service
knobs, the benchmark generator) is described *declaratively*: every knob
is a :class:`ConfigVar` carrying its accepted types, value domain,
default and documentation.  A :class:`ScenarioSpec` bundles them and is
the single source of truth that every entry boundary consults:

* ``LegalizerConfig.__post_init__`` raises ``ValueError`` with the
  violation list,
* the service protocol turns the same violations into
  ``ProtocolError`` → HTTP 400 before a config ever reaches a worker,
* the CLI exits 2 with the same messages,
* the fuzz harness generates its differential-oracle matrix from the
  spec (:mod:`repro.scenario.matrix`) instead of a hand-kept list,
* ``repro sweep`` expands axes files through :meth:`ScenarioSpec.
  enumerate_valid` into telemetry-backed campaigns
  (:mod:`repro.scenario.sweep`).

The idiom follows the staged ``ConfigVar`` layer of
ProConPy/visualCaseGen: knobs declare their lattice once, and both
validation and enumeration fall out of the same declaration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ConfigViolation:
    """One way a configuration fails its spec.

    ``field`` names the offending knob, ``code`` classifies the failure
    (``unknown`` / ``type`` / ``domain``), and ``message`` is the
    human-readable sentence every boundary surfaces verbatim — the
    dataclass ``ValueError``, the service 400 payload and the CLI
    stderr all print the same text.
    """

    field: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def format_violations(violations: Sequence[ConfigViolation]) -> str:
    return "; ".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Value domains
# ----------------------------------------------------------------------
class Domain:
    """The set of acceptable values for one knob (beyond its type)."""

    def check(self, value: Any) -> Optional[str]:
        """Error message when *value* is outside the domain, else None."""
        return None

    def describe(self) -> str:
        return "any"


class Anything(Domain):
    pass


@dataclass(frozen=True)
class Choice(Domain):
    """A finite enumeration."""

    choices: Tuple[Any, ...]

    def check(self, value: Any) -> Optional[str]:
        if value not in self.choices:
            return (
                f"must be one of {sorted(map(repr, self.choices))}, "
                f"got {value!r}"
            )
        return None

    def describe(self) -> str:
        return "one of " + ", ".join(f"`{v}`" for v in self.choices)


@dataclass(frozen=True)
class Range(Domain):
    """A (half-)open or closed numeric interval.

    ``lo``/``hi`` of None mean unbounded on that side; ``lo_open`` /
    ``hi_open`` exclude the endpoint (``Range(0.0, 1.0, lo_open=True,
    hi_open=True)`` is the open interval (0, 1)).
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    def check(self, value: Any) -> Optional[str]:
        if self.lo is not None:
            if self.lo_open and not value > self.lo:
                return f"must be > {self.lo:g}, got {value!r}"
            if not self.lo_open and not value >= self.lo:
                return f"must be >= {self.lo:g}, got {value!r}"
        if self.hi is not None:
            if self.hi_open and not value < self.hi:
                return f"must be < {self.hi:g}, got {value!r}"
            if not self.hi_open and not value <= self.hi:
                return f"must be <= {self.hi:g}, got {value!r}"
        return None

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "inf" if self.hi is None else f"{self.hi:g}"
        return ("(" if self.lo_open or self.lo is None else "[") + \
            f"{lo}, {hi}" + (")" if self.hi_open or self.hi is None else "]")


# ----------------------------------------------------------------------
# Knobs
# ----------------------------------------------------------------------
_TYPE_NAMES = {bool: "bool", int: "int", float: "float", str: "str"}


def _type_name(t: type) -> str:
    return _TYPE_NAMES.get(t, t.__name__)


@dataclass(frozen=True)
class ConfigVar:
    """One typed configuration knob: accepted types, domain, default, doc.

    ``types`` is the tuple of accepted Python types.  ``bool`` is never
    accepted implicitly through ``int`` (so ``"shard": 1`` and
    ``"lam": True`` are both type violations), and ``float`` knobs
    accept ``int`` values.  ``nullable`` additionally admits ``None``
    (the domain is then only checked on non-None values).
    """

    name: str
    types: Tuple[type, ...]
    default: Any
    doc: str
    domain: Domain = field(default_factory=Anything)
    nullable: bool = False

    def _type_ok(self, value: Any) -> bool:
        if isinstance(value, bool):
            return bool in self.types
        if isinstance(value, int) and (int in self.types or float in self.types):
            return True
        return isinstance(value, self.types)

    def type_label(self) -> str:
        label = " | ".join(_type_name(t) for t in self.types)
        return f"{label} | None" if self.nullable else label

    def validate(self, value: Any) -> Optional[ConfigViolation]:
        if value is None:
            if self.nullable:
                return None
            return ConfigViolation(
                self.name, "type",
                f"must be {self.type_label()}, got None",
            )
        if not self._type_ok(value):
            return ConfigViolation(
                self.name, "type",
                f"must be {self.type_label()}, "
                f"got {type(value).__name__} {value!r}",
            )
        error = self.domain.check(value)
        if error is not None:
            return ConfigViolation(self.name, "domain", error)
        return None

    def renamed(self, name: str) -> "ConfigVar":
        return replace(self, name=name)


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
class ScenarioSpec:
    """A named bundle of :class:`ConfigVar` knobs.

    ``validate`` is the single entry point every boundary shares;
    ``enumerate_valid`` expands an axes mapping into the valid sublattice
    (used by the fuzz-oracle matrix and ``repro sweep``); ``self_check``
    is the CI gate that keeps the spec and its mirrored dataclass in
    lockstep.
    """

    def __init__(self, name: str, variables: Iterable[ConfigVar]) -> None:
        self.name = name
        self.variables: Dict[str, ConfigVar] = {}
        for var in variables:
            if var.name in self.variables:
                raise ValueError(f"duplicate ConfigVar {var.name!r}")
            self.variables[var.name] = var

    # ------------------------------------------------------------- access
    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def var(self, name: str) -> ConfigVar:
        return self.variables[name]

    def defaults(self) -> Dict[str, Any]:
        return {name: var.default for name, var in self.variables.items()}

    # ----------------------------------------------------------- validate
    def validate(self, config: Any) -> List[ConfigViolation]:
        """All the ways *config* violates this spec (empty = valid).

        *config* is a mapping of overrides (absent knobs take their
        defaults) or a dataclass instance (every declared knob is read
        with ``getattr``).  Unknown names are reported first, then each
        known knob's type/domain check.
        """
        provided = self._as_mapping(config)
        violations: List[ConfigViolation] = [
            ConfigViolation(
                name, "unknown",
                f"unknown {self.name} field (known: "
                f"{sorted(self.variables)})",
            )
            for name in provided
            if name not in self.variables
        ]
        for name, value in provided.items():
            if name in self.variables:
                violation = self.variables[name].validate(value)
                if violation is not None:
                    violations.append(violation)
        return violations

    def _as_mapping(self, config: Any) -> Dict[str, Any]:
        if isinstance(config, Mapping):
            return dict(config)
        if is_dataclass(config) and not isinstance(config, type):
            return {
                name: getattr(config, name)
                for name in self.variables
                if hasattr(config, name)
            }
        raise TypeError(
            f"expected a mapping or dataclass instance, got {type(config).__name__}"
        )

    # ---------------------------------------------------------- enumerate
    def enumerate_valid(
        self, axes: Mapping[str, Sequence[Any]]
    ) -> List[Dict[str, Any]]:
        """Expand *axes* into every valid point of the knob lattice.

        ``axes`` maps knob names to candidate value lists; the result is
        the cartesian product restricted to points :meth:`validate`
        accepts, in deterministic product order (last axis fastest).
        Axis values that fail their knob's *type* check raise
        immediately (a typo'd axes file should not silently produce an
        empty campaign); points dropped by *domain* violations are
        skipped silently — pruning invalid values is the method's
        purpose.
        """
        names = list(axes)
        for name in names:
            if name not in self.variables:
                raise ValueError(
                    f"unknown {self.name} axis {name!r} "
                    f"(known: {sorted(self.variables)})"
                )
            values = axes[name]
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise ValueError(
                    f"axis {name!r} must be a list of values, got {values!r}"
                )
            for value in values:
                violation = self.variables[name].validate(value)
                if violation is not None and violation.code == "type":
                    raise ValueError(f"axis {violation}")
        points: List[Dict[str, Any]] = []
        for combo in itertools.product(*(axes[name] for name in names)):
            point = dict(zip(names, combo))
            if not self.validate(point):
                points.append(point)
        return points

    # ---------------------------------------------------------- self-check
    def self_check(self, mirror: Any = None) -> List[str]:
        """Internal-consistency problems (empty = healthy).

        Checks that the defaults themselves validate, that every knob
        has a doc string, and — when *mirror* is given (a dataclass type
        this spec shadows, e.g. ``LegalizerConfig``) — that the spec and
        the dataclass agree field-for-field and default-for-default, so
        a knob added to one side without the other fails CI.
        """
        problems: List[str] = []
        for violation in self.validate(self.defaults()):
            problems.append(f"default config invalid: {violation}")
        for name, var in self.variables.items():
            if not var.doc.strip():
                problems.append(f"field {name!r} has no doc string")
        if mirror is not None:
            mirror_fields = {f.name: f for f in dc_fields(mirror)}
            for name in mirror_fields:
                if name not in self.variables:
                    problems.append(
                        f"{mirror.__name__}.{name} is not declared in the "
                        f"{self.name} spec"
                    )
            for name, var in self.variables.items():
                if name not in mirror_fields:
                    problems.append(
                        f"spec field {name!r} does not exist on "
                        f"{mirror.__name__}"
                    )
                    continue
                mirror_default = _dataclass_default(mirror_fields[name])
                if mirror_default is not _NO_DEFAULT and (
                    mirror_default is not var.default
                    and mirror_default != var.default
                ):
                    problems.append(
                        f"default mismatch for {name!r}: spec has "
                        f"{var.default!r}, {mirror.__name__} has "
                        f"{mirror_default!r}"
                    )
        return problems

    # --------------------------------------------------------------- docs
    def knob_table(self) -> str:
        """The knob reference as a GitHub-markdown table."""
        lines = [
            "| knob | type | domain | default | description |",
            "| --- | --- | --- | --- | --- |",
        ]
        for name, var in self.variables.items():
            domain = var.domain.describe()
            if isinstance(var.domain, Anything):
                domain = "—"
            doc = " ".join(var.doc.split())
            type_label = var.type_label().replace("|", "\\|")
            lines.append(
                f"| `{name}` | {type_label} | {domain} "
                f"| `{var.default!r}` | {doc} |"
            )
        return "\n".join(lines)


_NO_DEFAULT = object()


def _dataclass_default(f) -> Any:
    import dataclasses

    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f.default_factory()  # type: ignore[misc]
    return _NO_DEFAULT


def combine_specs(
    name: str, parts: Sequence[Tuple[str, "ScenarioSpec"]]
) -> "ScenarioSpec":
    """Merge several specs into one, prefixing each part's knob names."""
    return ScenarioSpec(
        name,
        [
            var.renamed(prefix + var_name)
            for prefix, spec in parts
            for var_name, var in spec.variables.items()
        ],
    )


__all__ = [
    "Anything",
    "Choice",
    "ConfigVar",
    "ConfigViolation",
    "Domain",
    "Range",
    "ScenarioSpec",
    "combine_specs",
    "format_violations",
]
