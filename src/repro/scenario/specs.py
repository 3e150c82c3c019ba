"""The repo's concrete scenario specs.

One :class:`~repro.scenario.spec.ScenarioSpec` per configuration
surface:

* :data:`LEGALIZER_SPEC` shadows :class:`repro.core.legalizer.
  LegalizerConfig` knob-for-knob (CI's spec self-check fails when they
  drift),
* :data:`SERVICE_SPEC` shadows :class:`repro.service.server.
  ServiceConfig`,
* :data:`BENCHGEN_SPEC` covers the :func:`repro.benchgen.make_benchmark`
  generator knobs,
* :data:`SWEEP_SPEC` is the campaign lattice ``repro sweep`` expands:
  every legalizer knob plus the benchgen knobs under a ``gen.`` prefix.

This module must not import :mod:`repro.core.legalizer` at module level:
``LegalizerConfig.__post_init__`` imports *us* for validation, so the
dependency has to stay one-way.
"""

from __future__ import annotations

from repro.core.resilience import ResilienceConfig
from repro.scenario.spec import (
    Choice,
    ConfigVar,
    Range,
    ScenarioSpec,
    combine_specs,
)


LEGALIZER_SPEC = ScenarioSpec(
    "legalizer",
    [
        ConfigVar(
            "lam", (float,), 1000.0,
            "Soft-constraint weight λ of the relaxed QP "
            "(paper Section 5 uses 1000).",
            Range(0.0, lo_open=True),
        ),
        ConfigVar(
            "beta", (float,), 0.5,
            "Matrix-splitting parameter β* of the MMSIM Eq.(16) scheme; "
            "Theorem 2 requires it strictly inside (0, 1).",
            Range(0.0, 1.0, lo_open=True, hi_open=True),
        ),
        ConfigVar(
            "theta", (float,), 0.5,
            "Matrix-splitting parameter θ* of the MMSIM Eq.(16) scheme; "
            "Theorem 2 requires it strictly inside (0, 1).",
            Range(0.0, 1.0, lo_open=True, hi_open=True),
        ),
        ConfigVar(
            "tol", (float,), 1e-3,
            "MMSIM stopping tolerance on the iterate delta (site-snapped "
            "output cannot resolve below ~1e-3 site widths).",
            Range(0.0, lo_open=True),
        ),
        ConfigVar(
            "residual_tol", (float,), 1e-2,
            "Natural-residual certificate bound checked after "
            "convergence; None skips the check.",
            Range(0.0, lo_open=True), nullable=True,
        ),
        ConfigVar(
            "max_iterations", (int,), 20000,
            "MMSIM sweep cap per (sub)problem.",
            Range(1),
        ),
        ConfigVar(
            "balance_rows", (bool,), False,
            "Extension: shift cells out of over-capacity rows before the "
            "MMSIM to reduce right-boundary spill.",
        ),
        ConfigVar(
            "enforce_right_boundary", (bool,), False,
            "Extension: add exact right-boundary rows for every row "
            "whose cells fit (the paper's relaxation is the default).",
        ),
        ConfigVar(
            "shard", (bool,), True,
            "Shard the KKT LCP into independent coupling-graph "
            "components and solve them separately (exact); False solves "
            "the whole LCP as one shard.",
        ),
        ConfigVar(
            "min_shard_variables", (int,), 256,
            "Batch tiny coupling components into shards of at least this "
            "many variables.",
            Range(1),
        ),
        ConfigVar(
            "resilience", (ResilienceConfig,), None,
            "Fault-injection hook and safe-retry sweep factor of the "
            "per-shard solver ladder (safe MMSIM → PSOR → Lemke → clamp) "
            "that re-solves shards that fail to converge.",
            nullable=True,
        ),
        ConfigVar(
            "kernel_backend", (str,), "reference",
            "How often the MMSIM tests convergence on its one sweep: "
            "`reference` after every sweep (the paper's iteration), "
            "`fused` every 8 sweeps.",
            Choice(("reference", "fused")),
        ),
    ],
)


SERVICE_SPEC = ScenarioSpec(
    "service",
    [
        ConfigVar("host", (str,), "127.0.0.1", "Bind address."),
        ConfigVar(
            "port", (int,), 8787,
            "Bind port; 0 binds an ephemeral port.",
            Range(0, 65535),
        ),
        ConfigVar(
            "queue_limit", (int,), 64,
            "Bounded job queue; a full queue answers 429 + Retry-After. "
            "Must admit at least one job.",
            Range(1),
        ),
        ConfigVar(
            "max_batch", (int,), 16,
            "Cap on the queued jobs a free worker takes into one stacked "
            "solve.",
            Range(1),
        ),
        ConfigVar(
            "workers", (int,), 2,
            "Worker threads executing batches; a queued job starts as "
            "soon as one is idle.",
            Range(1),
        ),
        ConfigVar(
            "default_deadline_seconds", (float,), None,
            "Deadline applied when a request does not send one; "
            "None = none.",
            Range(0.0, lo_open=True), nullable=True,
        ),
        ConfigVar(
            "store_max_entries", (int,), 1024,
            "Warm-state store entry cap; None = unbounded.",
            Range(1), nullable=True,
        ),
        ConfigVar(
            "store_max_bytes", (int,), 256 * 1024 * 1024,
            "Warm-state store byte cap, counting states and checked-in "
            "setup caches; None = unbounded.",
            Range(1), nullable=True,
        ),
        ConfigVar(
            "store_ttl_seconds", (float,), None,
            "Warm-state entry time-to-live; None = no expiry.",
            Range(0.0, lo_open=True), nullable=True,
        ),
    ],
)


BENCHGEN_SPEC = ScenarioSpec(
    "benchgen",
    [
        ConfigVar(
            "scale", (float,), 0.02,
            "Design size as a fraction of the paper's Table 1 profiles.",
            Range(0.0, lo_open=True),
        ),
        ConfigVar("seed", (int,), 0, "Generator RNG seed.", Range(0)),
        ConfigVar(
            "mixed", (bool,), True,
            "Mixed-cell-height population (False = single-row only).",
        ),
        ConfigVar(
            "with_nets", (bool,), True,
            "Attach a synthetic netlist (needed for HPWL metrics).",
        ),
        ConfigVar(
            "fences", (int,), 0,
            "Number of fence regions to carve.",
            Range(0),
        ),
        ConfigVar(
            "macro_fraction", (float,), 0.0,
            "Fraction of area given to fixed macro obstacles.",
            Range(0.0, 1.0, hi_open=True),
        ),
    ],
)


#: The campaign lattice ``repro sweep`` expands: legalizer knobs plus
#: the benchmark-generator knobs under a ``gen.`` prefix.
SWEEP_SPEC = combine_specs(
    "sweep", [("", LEGALIZER_SPEC), ("gen.", BENCHGEN_SPEC)]
)


__all__ = ["BENCHGEN_SPEC", "LEGALIZER_SPEC", "SERVICE_SPEC", "SWEEP_SPEC"]
