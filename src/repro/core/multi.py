"""Cross-design stacked legalization: many designs, one batched solve.

The legalization service answers many small concurrent requests — each a
whole (usually small, often warm-started) design.  Solving a burst of
them one at a time repays the per-solve Python and setup overhead that
the batched engine (:mod:`repro.core.batched`) amortizes *across
requests*:

1. each design runs the front half of the flow on its own
   (:meth:`~repro.core.legalizer.MMSIMLegalizer.prepare`: row alignment,
   multi-row split, QP assembly, warm-start validation);
2. designs with compatible solver settings are **merged**: their QP
   blocks are stacked block-diagonally (designs never couple, so the
   merged KKT LCP is exactly the concatenation of the per-design ones —
   the same invariant component sharding already exploits *within* one
   design) and sharded at micro-component granularity;
3. one call into the sharded solver with ``batch=True`` sweeps every
   shard of every design, grouping shards *across designs* by structural
   signature into stacked vectorized MMSIMs;
4. each design's slice of the solution is scattered back and finished
   independently (restore, Tetris allocation, mandatory legality audit).

Merging only changes which stacked group a shard sweeps in, and the
batched engine is bit-identical to the per-shard path by construction,
so a merged design's result equals its solo run at single-component
granularity (``LegalizerConfig(min_shard_variables=1)``) bit for bit.

A design with nothing to merge with — alone in its solver-key group, a
config the merger excludes, or no movable subcells — runs the rest of
:meth:`~repro.core.legalizer.MMSIMLegalizer.legalize`'s own phase chain
on its prepared design (``build_systems`` with the job's
:class:`~repro.core.setup_cache.ReuseCache`, ``solve_prepared``,
``finish``), so its answer is ``legalize()``'s bit for bit.

Warm and cold designs are solved in **separate** merged groups: a warm
group seeds from the concatenated persisted ``z`` vectors, a cold group
from the concatenated GP warm starts, so each design's seed is exactly
what a solo run would use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.legalizer import (
    LegalizationResult,
    LegalizerConfig,
    MMSIMLegalizer,
    PreparedLegalization,
)
from repro.core.resilience import ShardEscalation
from repro.core.setup_cache import ReuseCache
from repro.core.sharding import build_shards, solve_sharded
from repro.core.state import SolverState
from repro.lcp.problem import LCPResult
from repro.netlist.design import Design
from repro.telemetry import active_tracer, current_session


@dataclass
class DesignJob:
    """One design to legalize, with its config and optional warm state."""

    design: Design
    config: Optional[LegalizerConfig] = None
    warm_state: Union[None, SolverState, np.ndarray] = None
    #: Previous run's setup-reuse cache for this design (see
    #: :mod:`repro.core.setup_cache`).  Honoured when the design solves
    #: alone; a cache built for one design cannot describe a *stacked*
    #: system, so merged groups skip it.
    reuse: Optional[ReuseCache] = None


def _mergeable(cfg: LegalizerConfig) -> bool:
    """Whether a config can join a merged stacked solve.

    Excluded: custom resilience configs (fault-injection hooks are keyed
    by per-design shard indices) and ``shard=False`` (one shard per
    design, which a stacked partition would split).
    """
    return cfg.shard and cfg.resilience is None


def _solver_key(cfg: LegalizerConfig, prepared: PreparedLegalization) -> Tuple:
    """Designs merge only when every solver-visible setting agrees —
    and warm (``z0``) never merges with cold (``s0``), so each group's
    seed vector is the concatenation of identically-sourced seeds."""
    return (
        cfg.lam,
        cfg.beta,
        cfg.theta,
        cfg.tol,
        cfg.residual_tol,
        cfg.max_iterations,
        cfg.kernel_backend,  # the check cadence decides where a solve stops
        prepared.z0 is not None,
    )


def _scatter_escalations(
    escalations: List[ShardEscalation],
    sharded,
    n_offsets: np.ndarray,
) -> Dict[int, List[ShardEscalation]]:
    """Map combined-system escalations back to their owning design."""
    by_design: Dict[int, List[ShardEscalation]] = {}
    if not escalations:
        return by_design
    shard_by_index = {shard.index: shard for shard in sharded.shards}
    for esc in escalations:
        shard = shard_by_index.get(esc.shard_index)
        if shard is None or len(shard.variables) == 0:
            continue
        owner = int(
            np.searchsorted(n_offsets, shard.variables[0], side="right") - 1
        )
        by_design.setdefault(owner, []).append(esc)
    return by_design


def _solve_group(
    members: List[int],
    prepared: List[PreparedLegalization],
    legalizers: List[MMSIMLegalizer],
    results: List[Optional[LegalizationResult]],
    tracer,
) -> None:
    """Stack one compatible group's KKT systems, solve, finish each."""
    preps = [prepared[i] for i in members]
    cfg = legalizers[members[0]].config
    tel = current_session()

    n_sizes = np.array([p.num_variables for p in preps], dtype=np.intp)
    m_sizes = np.array([p.num_constraints for p in preps], dtype=np.intp)
    n_offsets = np.concatenate([[0], np.cumsum(n_sizes)])
    m_offsets = np.concatenate([[0], np.cumsum(m_sizes)])
    N = int(n_offsets[-1])
    M = int(m_offsets[-1])

    with tracer.span(
        "stack", designs=len(preps), variables=N, constraints=M
    ):
        Hc = sp.block_diag(
            [p.legal_qp.qp.H for p in preps], format="csr"
        )
        Bc = sp.block_diag(
            [p.legal_qp.qp.B for p in preps], format="csr"
        )
        Ec = sp.block_diag([p.legal_qp.E for p in preps], format="csr")
        pc = np.concatenate([p.legal_qp.qp.p for p in preps])
        bc = np.concatenate([p.legal_qp.qp.b for p in preps])
        sharded = build_shards(
            Hc,
            pc,
            Bc,
            bc,
            Ec,
            lam=cfg.lam,
            params=preps[0].params,
            min_shard_variables=1,
            lazy=True,
        )
        if tel.enabled:
            tel.metrics.gauge("shard.components").set(sharded.num_components)
            tel.metrics.gauge("shard.shards").set(sharded.num_shards)

        # Seeds live in the stacked KKT layout [all tops; all bottoms].
        s0c = None
        z0c = None
        if preps[0].z0 is not None:
            z0c = np.concatenate(
                [p.z0[: p.num_variables] for p in preps]
                + [p.z0[p.num_variables:] for p in preps]
            )
        else:
            s0c = np.concatenate(
                [p.s0[: p.num_variables] for p in preps]
                + [p.s0[p.num_variables:] for p in preps]
            )

    options = legalizers[members[0]].solver_options(tel)
    start = time.perf_counter()
    with tracer.span(
        "mmsim_batch", designs=len(preps), variables=N, constraints=M
    ) as span:
        group_result, escalations = solve_sharded(
            sharded, options, s0=s0c, z0=z0c, batch=True
        )
        span.set_attributes(
            iterations=group_result.iterations,
            converged=group_result.converged,
            residual=group_result.residual,
        )
    solve_seconds = time.perf_counter() - start
    if tel.enabled:
        tel.metrics.counter("mmsim.iterations").inc(group_result.iterations)
        tel.metrics.counter("mmsim.solves").inc()

    esc_by_design = _scatter_escalations(escalations, sharded, n_offsets)

    z = group_result.z
    for gi, i in enumerate(members):
        p = prepared[i]
        z_d = np.concatenate(
            [
                z[n_offsets[gi]: n_offsets[gi] + n_sizes[gi]],
                z[N + m_offsets[gi]: N + m_offsets[gi] + m_sizes[gi]],
            ]
        )
        # Group-level convergence stats: iterations/residual are the
        # stacked solve's aggregates (max over every shard in the
        # group), a conservative bound for each member design.
        design_result = LCPResult(
            z=z_d,
            converged=group_result.converged,
            iterations=group_result.iterations,
            residual=group_result.residual,
            solver="mmsim",
            message=group_result.message,
        )
        with tracer.span(
            "legalize",
            design=p.design.name,
            algorithm="mmsim",
            phase="finish",
            cells=len(p.design.movable_cells),
        ) as froot:
            result = legalizers[i].finish(
                p,
                design_result,
                esc_by_design.get(gi, []),
                tracer=tracer,
            )
        stage_seconds = dict(froot.child_seconds())
        stage_seconds["mmsim"] = solve_seconds
        result.stage_seconds = stage_seconds
        results[i] = result


def _solve_alone(
    legalizer: MMSIMLegalizer,
    prepared: PreparedLegalization,
    reuse: Optional[ReuseCache],
    tracer,
) -> LegalizationResult:
    """Run the rest of ``legalize()``'s phase chain on one prepared
    design."""
    with tracer.span(
        "legalize",
        design=prepared.design.name,
        algorithm="mmsim",
        phase="solve",
        cells=len(prepared.design.movable_cells),
    ) as root:
        legalizer.build_systems(prepared, tracer=tracer, reuse=reuse)
        mmsim_result, escalations = legalizer.solve_prepared(
            prepared, tracer=tracer
        )
        result = legalizer.finish(
            prepared, mmsim_result, escalations, tracer=tracer
        )
    result.stage_seconds = root.child_seconds()
    return result


def legalize_many(
    jobs: Sequence[Union[DesignJob, Design]],
) -> List[LegalizationResult]:
    """Legalize several designs, stacking compatible ones into shared
    batched solves.  Returns one :class:`LegalizationResult` per job, in
    order.  Plain :class:`Design` items are wrapped in a default
    :class:`DesignJob`.

    A job that shares its solver-key group with no other job (see
    ``_mergeable`` and ``_solver_key``) gets ``legalize()``'s answer bit
    for bit; a merged job gets its solo
    ``LegalizerConfig(min_shard_variables=1)`` answer.
    """
    jobs = [
        job if isinstance(job, DesignJob) else DesignJob(design=job)
        for job in jobs
    ]
    results: List[Optional[LegalizationResult]] = [None] * len(jobs)
    legalizers: List[MMSIMLegalizer] = [
        MMSIMLegalizer(job.config) for job in jobs
    ]
    prepared: List[PreparedLegalization] = []
    prepare_seconds: List[Dict[str, float]] = []
    tracer = active_tracer()

    groups: Dict[Tuple, List[int]] = {}
    for i, job in enumerate(jobs):
        cfg = legalizers[i].config
        with tracer.span(
            "legalize",
            design=job.design.name,
            algorithm="mmsim",
            phase="prepare",
            cells=len(job.design.movable_cells),
        ) as proot:
            prep = legalizers[i].prepare(
                job.design, warm_start_z=job.warm_state, tracer=tracer
            )
        prepare_seconds.append(dict(proot.child_seconds()))
        prepared.append(prep)
        key: Tuple = ("alone", i)
        if _mergeable(cfg) and prep.num_variables:
            key = _solver_key(cfg, prep)
        groups.setdefault(key, []).append(i)

    for members in groups.values():
        if len(members) == 1:
            (i,) = members
            results[i] = _solve_alone(
                legalizers[i], prepared[i], jobs[i].reuse, tracer
            )
        else:
            _solve_group(members, prepared, legalizers, results, tracer)
        for i in members:
            results[i].stage_seconds = {
                **prepare_seconds[i], **results[i].stage_seconds
            }

    return results  # type: ignore[return-value]
