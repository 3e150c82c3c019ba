"""Declarative scenario/configuration layer (see docs/CONFIGURATION.md).

:mod:`repro.scenario.spec` is the machinery (typed :class:`ConfigVar`
knobs with value domains, :class:`ScenarioSpec` with ``validate`` /
``enumerate_valid`` / ``self_check``);
:mod:`repro.scenario.specs` declares the repo's concrete specs.  The
fuzz-oracle matrix generator (:mod:`repro.scenario.matrix`) and the
``repro sweep`` campaign runner (:mod:`repro.scenario.sweep`) are
imported explicitly by their consumers — not re-exported here — so
importing this package from ``LegalizerConfig.__post_init__`` stays
cycle-free and cheap.
"""

from repro.scenario.spec import (
    Anything,
    Choice,
    ConfigVar,
    ConfigViolation,
    Domain,
    Range,
    ScenarioSpec,
    combine_specs,
    format_violations,
)
from repro.scenario.specs import (
    BENCHGEN_SPEC,
    LEGALIZER_SPEC,
    SERVICE_SPEC,
    SWEEP_SPEC,
)

__all__ = [
    "Anything",
    "BENCHGEN_SPEC",
    "Choice",
    "ConfigVar",
    "ConfigViolation",
    "Domain",
    "LEGALIZER_SPEC",
    "Range",
    "SERVICE_SPEC",
    "SWEEP_SPEC",
    "ScenarioSpec",
    "combine_specs",
    "format_violations",
]
