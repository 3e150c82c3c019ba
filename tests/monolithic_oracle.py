"""The removed monolithic solve path, kept as a test-local reference.

``LegalizerConfig(shard=False)`` runs the one sharded path on a one-shard
partition.  Before that it had a path of its own: one
:class:`~repro.core.splitting.LegalizationSplitting` over the global QP
blocks and :func:`~repro.core.resilience.solve_shard_resilient` on
``qp.kkt_lcp()`` and that splitting as shard 0.
:func:`legalize_monolithic_oracle` is that path, between the
legalizer's own ``prepare`` and ``finish`` phases, so the parity tests
can compare the two bit for bit.  Nothing under ``src/`` may import this
module.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.legalizer import (
    LegalizationResult,
    LegalizerConfig,
    MMSIMLegalizer,
)
from repro.core.resilience import solve_shard_resilient
from repro.core.splitting import LegalizationSplitting


def legalize_monolithic_oracle(
    design, config: LegalizerConfig
) -> LegalizationResult:
    """Legalize *design* through the removed monolithic solve path."""
    legalizer = MMSIMLegalizer(config)
    prepared = legalizer.prepare(design)
    legal_qp = prepared.legal_qp
    qp = legal_qp.qp
    lcp = qp.kkt_lcp()
    splitting = LegalizationSplitting(
        qp.H,
        qp.B,
        legal_qp.E,
        legal_qp.lam,
        prepared.params,
    )
    result, escalation = solve_shard_resilient(
        lcp,
        splitting,
        legalizer.solver_options(),
        s0=prepared.s0,
        config=config.resilience,
        shard_index=0,
        z0=prepared.z0,
    )
    escalations = []
    if escalation is not None:
        # The flow reports the primary MMSIM's sweeps, whichever rung won.
        result = replace(result, iterations=escalation.primary_iterations)
        escalations.append(escalation)
    return legalizer.finish(prepared, result, escalations)
