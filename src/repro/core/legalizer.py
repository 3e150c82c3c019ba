"""The complete mixed-cell-height legalization flow (paper's Figure 4).

:class:`MMSIMLegalizer` chains the five stages:

1. nearest-correct-row alignment       (:mod:`repro.core.row_assign`)
2. multi-row cell splitting            (:mod:`repro.core.subcells`)
3. relaxed-QP / KKT-LCP construction   (:mod:`repro.core.qp_builder`)
4. MMSIM solve with the Eq.(16) splitting
   (:mod:`repro.lcp.mmsim` + :mod:`repro.core.splitting`)
5. multi-row restore + Tetris-like allocation
   (:mod:`repro.core.subcells` + :mod:`repro.core.tetris_fix`)

and reports a :class:`LegalizationResult` carrying every statistic the
paper's evaluation needs (illegal-cell counts for Table 1, displacement /
ΔHPWL / runtime for Table 2, iteration counts and optimality residuals for
Section 5.3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.qp_builder import LegalizationQP, build_legalization_qp
from repro.core.resilience import ResilienceConfig, ShardEscalation
from repro.core.row_assign import assign_rows
from repro.core.setup_cache import ReuseCache
from repro.core.sharding import shard_legalization_qp, solve_sharded
from repro.core.splitting import SplittingParameters
from repro.core.state import SolverState, StaleWarmStart
from repro.core.subcells import restore_cells, split_cells
from repro.core.tetris_fix import TetrisFixStats, tetris_allocate
from repro.lcp.mmsim import MMSIMOptions
from repro.lcp.problem import split_kkt_solution
from repro.legality.checker import check_legality
from repro.legality.violations import LegalityReport
from repro.metrics.displacement import DisplacementStats, displacement_stats
from repro.metrics.hpwl import WirelengthStats, wirelength_stats
from repro.netlist.design import Design
from repro.telemetry import active_tracer, current_session

#: Sweeps per convergence test under ``kernel_backend="fused"``: 8
#: amortizes most of the per-test Python overhead while keeping the
#: worst-case overshoot (converging mid-block) a handful of cheap sweeps.
FUSED_BLOCK = 8


@dataclass
class LegalizerConfig:
    """Tunables of the flow; defaults are the paper's Section 5 settings
    (λ = 1000, β* = θ* = 0.5).

    The default stopping tolerance is loose on purpose: positions are
    snapped to integer placement sites by the Tetris stage, so iterating
    the MMSIM below ~1e-3 site widths cannot change the final placement
    (verified by ``tests/test_legalizer.py::test_tolerance_insensitivity``).
    Optimality experiments (Section 5.3) pass tighter values explicitly.
    """

    lam: float = 1000.0
    beta: float = 0.5
    theta: float = 0.5
    tol: float = 1e-3
    residual_tol: Optional[float] = 1e-2
    max_iterations: int = 20000
    #: Extension beyond the paper: shift cells out of over-capacity rows
    #: before the MMSIM (reduces right-boundary spill on dense designs).
    balance_rows: bool = False
    #: Extension beyond the paper: add exact right-boundary rows to B for
    #: every row whose cells fit (overfull rows keep the relaxation).
    #: Removes boundary spill at the QP level on mildly pressed designs;
    #: under heavy right-edge compression the extra rows slow the MMSIM
    #: markedly (see benchmarks/bench_ablation_boundary.py) — the paper's
    #: relaxation is the right default.
    enforce_right_boundary: bool = False
    #: Shard the KKT LCP into independent coupling-graph components and
    #: solve them separately (exact; see repro.core.sharding).  Each shard
    #: stops as soon as it converges, so sharding wins even serially.
    #: ``False`` solves the whole LCP as one shard.
    shard: bool = True
    #: Batch tiny coupling components into shards of at least this many
    #: variables so Python sweep overhead stays amortized.
    min_shard_variables: int = 256
    #: Tunables (and the fault-injection hook) of the per-shard solver
    #: ladder (see repro.core.resilience): a shard whose MMSIM fails to
    #: converge — or whose kernels raise — is re-solved down safe-kernel
    #: MMSIM → PSOR → Lemke → clamp instead of propagating a
    #: half-iterated placement; shards that converge are untouched.
    #: None uses the :class:`~repro.core.resilience.ResilienceConfig`
    #: defaults.
    resilience: Optional[ResilienceConfig] = None
    #: How often the MMSIM tests convergence on its one sweep:
    #: ``"reference"`` (default) after every sweep, the paper's plain
    #: iteration; ``"fused"`` every :data:`FUSED_BLOCK` sweeps
    #: (``MMSIMOptions.block``), which saves the per-test overhead and
    #: may stop a few sweeps later.
    kernel_backend: str = "reference"

    def __post_init__(self) -> None:
        # Every knob is declared once, in
        # repro.scenario.specs.LEGALIZER_SPEC; the service protocol and
        # the CLI surface the same violations (HTTP 400 / exit 2).
        # Imported lazily: the scenario package imports repro.core
        # modules at load time, so the dependency must stay one-way.
        from repro.scenario.spec import format_violations
        from repro.scenario.specs import LEGALIZER_SPEC

        violations = LEGALIZER_SPEC.validate(self)
        if violations:
            raise ValueError(
                f"invalid LegalizerConfig: {format_violations(violations)}"
            )


@dataclass
class PreparedLegalization:
    """The front half of one design's flow, paused before the solve.

    Produced by :meth:`MMSIMLegalizer.prepare`: the row assignment,
    multi-row split model, and assembled QP, plus the resolved warm-start
    decision (``z0`` from an accepted persisted state, else the GP-based
    ``s0``).  :meth:`MMSIMLegalizer.build_systems` then attaches the
    sharded KKT system and :meth:`MMSIMLegalizer.finish`
    consumes the solver's ``z`` to produce a :class:`LegalizationResult`.

    The point of the split: the multi-design engine
    (:mod:`repro.core.multi`) prepares *several* designs, stacks their
    KKT systems into one batched solve, and finishes each design from
    its slice — reusing exactly the same stage code as a solo
    :meth:`MMSIMLegalizer.legalize` call.
    """

    design: Design
    assignment: object
    model: object
    legal_qp: LegalizationQP
    params: SplittingParameters
    #: Accepted persisted KKT solution (the warm path), else None.
    z0: Optional[np.ndarray] = None
    #: GP-based warm start (the cold path), else None.
    s0: Optional[np.ndarray] = None
    #: ``"state"`` (persisted solution accepted) or ``"gp"`` (cold
    #: start from global placement).
    warm_start: str = "gp"
    #: Why an offered persisted state was rejected, else None.
    warm_start_rejected: Optional[str] = None
    sharded: Optional[object] = None

    @property
    def num_variables(self) -> int:
        return self.legal_qp.num_variables

    @property
    def num_constraints(self) -> int:
        return self.legal_qp.num_constraints


@dataclass
class LegalizationResult:
    """Everything measured during one legalization run."""

    design_name: str
    num_cells: int
    num_variables: int
    num_constraints: int
    converged: bool
    iterations: int
    lcp_residual: float
    y_displacement: float
    max_subcell_mismatch: float
    mean_subcell_mismatch: float
    tetris: TetrisFixStats = field(default_factory=TetrisFixStats)
    displacement: Optional[DisplacementStats] = None
    wirelength: Optional[WirelengthStats] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    qp_objective: float = 0.0
    #: One record per shard whose primary MMSIM failed and walked the
    #: solver fallback ladder (empty on healthy runs).
    solver_escalations: List[ShardEscalation] = field(default_factory=list)
    #: The KKT LCP solution z = [y; r] the MMSIM stage produced — feed it
    #: back as ``legalize(..., warm_start_z=...)`` to warm-start an
    #: incremental re-legalization of the same design.
    kkt_solution: Optional[np.ndarray] = None
    #: The mandatory post-flow legality audit (independent checker).
    legality: Optional[LegalityReport] = None
    #: How the MMSIM was seeded: ``"state"`` (persisted solution
    #: accepted — the ECO warm path) or ``"gp"`` (cold start from the
    #: global placement).
    warm_start: str = "gp"
    #: When a persisted state was offered but rejected (stale fingerprint
    #: or dimension mismatch), the reason; None otherwise.  Surfaced in
    #: :meth:`summary` so a silently discarded state is visible outside
    #: telemetry.
    warm_start_rejected: Optional[str] = None

    @property
    def runtime(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def num_illegal(self) -> int:
        return self.tetris.num_illegal

    @property
    def audit_clean(self) -> bool:
        """True when the post-flow legality audit found zero violations."""
        return self.legality is not None and self.legality.is_legal

    def summary(self) -> str:
        disp = (
            f"{self.displacement.total_manhattan_sites:.0f} sites"
            if self.displacement
            else "n/a"
        )
        dh = (
            f"{self.wirelength.delta_hpwl_percent:+.2f}%"
            if self.wirelength
            else "n/a"
        )
        text = (
            f"{self.design_name}: disp={disp}, ΔHPWL={dh}, "
            f"illegal={self.num_illegal}/{self.num_cells} "
            f"({100 * self.tetris.illegal_fraction:.2f}%), "
            f"mmsim_iters={self.iterations}, runtime={self.runtime:.2f}s"
        )
        if self.warm_start == "state":
            text += ", warm=state"
        elif self.warm_start_rejected is not None:
            text += f", warm={self.warm_start} (stale state rejected)"
        if self.solver_escalations:
            winners = ",".join(e.winner for e in self.solver_escalations)
            text += (
                f", escalations={len(self.solver_escalations)} [{winners}]"
            )
        if self.legality is not None:
            text += f", audit={'clean' if self.legality.is_legal else 'ILLEGAL'}"
        return text


class MMSIMLegalizer:
    """Public entry point: ``MMSIMLegalizer().legalize(design)``.

    The design is modified in place (cell ``x, y, flipped, row_index``);
    global-placement coordinates are preserved in ``gp_x, gp_y`` so metrics
    and re-runs remain possible.
    """

    name = "mmsim"

    def __init__(self, config: Optional[LegalizerConfig] = None) -> None:
        self.config = config or LegalizerConfig()

    # ------------------------------------------------------------------
    def legalize(
        self,
        design: Design,
        warm_start_z: "Optional[np.ndarray | SolverState]" = None,
        reuse: Optional[ReuseCache] = None,
    ) -> LegalizationResult:
        tracer = active_tracer()
        with tracer.span(
            "legalize",
            design=design.name,
            algorithm=self.name,
            cells=len(design.movable_cells),
        ) as root:
            prepared = self.prepare(
                design, warm_start_z=warm_start_z, tracer=tracer
            )
            self.build_systems(prepared, tracer=tracer, reuse=reuse)
            mmsim_result, escalations = self.solve_prepared(
                prepared, tracer=tracer
            )
            result = self.finish(
                prepared, mmsim_result, escalations, tracer=tracer
            )
        result.stage_seconds = root.child_seconds()
        return result

    # ------------------------------------------------------------------
    # Phase methods.  legalize() chains them under one root span; the
    # multi-design engine (repro.core.multi) runs prepare()/finish() per
    # design around one shared stacked solve of the merged KKT systems.
    # ------------------------------------------------------------------
    def prepare(
        self,
        design: Design,
        warm_start_z: "Optional[np.ndarray | SolverState]" = None,
        tracer=None,
    ) -> PreparedLegalization:
        """Front half: row alignment, splitting, QP assembly, and the
        warm-start decision.  Does not touch cell positions."""
        cfg = self.config
        metrics = current_session().metrics
        tracer = tracer if tracer is not None else active_tracer()

        # Fence specs and coordinates are inputs: reject unresolvable
        # membership and NaN/inf positions before any stage consumes them
        # (a bad member name would otherwise surface as a silent "unfenced"
        # cell deep in the flow, a NaN as an anonymous crash after the
        # full solve).
        design.validate_fences()
        design.validate_coordinates()

        with tracer.span("row_assign"):
            assignment = assign_rows(design)

        if cfg.balance_rows:
            with tracer.span("rebalance"):
                from repro.core.rebalance import rebalance_rows

                rebalance_rows(design, assignment)

        with tracer.span("split") as span:
            model = split_cells(design, assignment)
            span.set_attribute("subcells", model.num_variables)

        with tracer.span("build_qp") as span:
            legal_qp = build_legalization_qp(
                design,
                model,
                lam=cfg.lam,
                enforce_right_boundary=cfg.enforce_right_boundary,
            )
            span.set_attributes(
                variables=legal_qp.num_variables,
                constraints=legal_qp.num_constraints,
            )
            metrics.gauge("qp.variables").set(legal_qp.num_variables)
            metrics.gauge("qp.constraints").set(legal_qp.num_constraints)

        prepared = PreparedLegalization(
            design=design,
            assignment=assignment,
            model=model,
            legal_qp=legal_qp,
            params=SplittingParameters(beta=cfg.beta, theta=cfg.theta),
        )
        self._resolve_warm_start(prepared, warm_start_z, metrics)
        return prepared

    def _resolve_warm_start(
        self, prepared: PreparedLegalization, warm_start_z, metrics
    ) -> None:
        """Validate an offered persisted state and record the decision."""
        design = prepared.design
        z0 = None
        reason = None
        if warm_start_z is not None:
            expected = prepared.num_variables + prepared.num_constraints
            if isinstance(warm_start_z, SolverState):
                reason = warm_start_z.matches(design, expected_dim=expected)
                z0 = None if reason else warm_start_z.z
            else:
                z0 = np.asarray(warm_start_z, dtype=float)
                reason = (
                    None
                    if z0.shape == (expected,)
                    else (
                        f"warm_start_z has shape {z0.shape}, "
                        f"expected ({expected},)"
                    )
                )
                if reason:
                    z0 = None
            if reason:
                warnings.warn(
                    f"rejecting stale warm start: {reason}; "
                    "falling back to the GP warm start",
                    StaleWarmStart,
                    stacklevel=3,
                )
                metrics.counter("legalizer.stale_warm_starts").inc()
        prepared.z0 = z0
        prepared.warm_start_rejected = reason
        if z0 is not None:
            prepared.warm_start = "state"
        else:
            prepared.s0 = self._warm_start(prepared.legal_qp)
            prepared.warm_start = "gp"

    def build_systems(
        self,
        prepared: PreparedLegalization,
        tracer=None,
        reuse: Optional[ReuseCache] = None,
    ) -> PreparedLegalization:
        """Attach the sharded KKT system (one shard when ``shard=False``)
        to *prepared*.

        ``reuse`` carries the previous run's setups (see
        :mod:`repro.core.setup_cache`): when this run's matrices and
        scalars equal that run's, its splittings are reused
        bit-identically instead of being refactorized, with the decision
        recorded under a ``setup_reuse`` child span.
        """
        cfg = self.config
        metrics = current_session().metrics
        tracer = tracer if tracer is not None else active_tracer()
        legal_qp = prepared.legal_qp
        with tracer.span("splitting") as span:
            prepared.sharded = shard_legalization_qp(
                legal_qp,
                params=prepared.params,
                min_shard_variables=cfg.min_shard_variables,
                reuse=reuse,
                single_shard=not cfg.shard,
            )
            span.set_attributes(
                components=prepared.sharded.num_components,
                shards=prepared.sharded.num_shards,
                **{"kernel.backend": cfg.kernel_backend},
            )
            metrics.gauge(f"kernel.backend.{cfg.kernel_backend}").set(1.0)
            metrics.gauge("shard.components").set(
                prepared.sharded.num_components
            )
            metrics.gauge("shard.shards").set(prepared.sharded.num_shards)
            if (
                legal_qp.var_groups is not None
                and prepared.sharded.labels is not None
            ):
                # Components made up of fence members (group-aware
                # batching guarantees a component never mixes groups).
                fence_components = int(
                    np.unique(
                        prepared.sharded.labels[legal_qp.var_groups >= 0]
                    ).size
                )
                span.set_attribute("fence_components", fence_components)
                metrics.gauge("fence.components").set(fence_components)
        return prepared

    def solver_options(self, tel=None) -> MMSIMOptions:
        """The MMSIM options this config implies, wired to *tel*'s sink."""
        cfg = self.config
        tel = tel if tel is not None else current_session()
        return MMSIMOptions(
            tol=cfg.tol,
            residual_tol=cfg.residual_tol,
            max_iterations=cfg.max_iterations,
            block=FUSED_BLOCK if cfg.kernel_backend == "fused" else 1,
            telemetry=tel.solver_events,
        )

    def solve_prepared(self, prepared: PreparedLegalization, tracer=None):
        """Solve the prepared design's own KKT systems; returns
        ``(mmsim_result, escalations)``."""
        cfg = self.config
        tel = current_session()
        metrics = tel.metrics
        tracer = tracer if tracer is not None else active_tracer()
        with tracer.span("mmsim") as span:
            mmsim_result, escalations = solve_sharded(
                prepared.sharded,
                self.solver_options(tel),
                s0=prepared.s0,
                config=cfg.resilience,
                z0=prepared.z0,
            )
            span.set_attributes(
                iterations=mmsim_result.iterations,
                converged=mmsim_result.converged,
                residual=mmsim_result.residual,
                escalations=len(escalations),
            )
            metrics.counter("mmsim.iterations").inc(mmsim_result.iterations)
            metrics.counter("mmsim.solves").inc()
            if "stall rescued" in mmsim_result.message:
                metrics.counter("mmsim.stall_rescues").inc()
        return mmsim_result, escalations

    def finish(
        self,
        prepared: PreparedLegalization,
        mmsim_result,
        escalations: Optional[List[ShardEscalation]] = None,
        tracer=None,
    ) -> LegalizationResult:
        """Back half: scatter positions, restore multi-row cells, Tetris
        allocation, the mandatory legality audit, and result assembly.

        ``stage_seconds`` is left empty — the caller owns the root span
        and fills it in afterwards (see :meth:`legalize`).
        """
        tel = current_session()
        metrics = tel.metrics
        tracer = tracer if tracer is not None else active_tracer()
        design = prepared.design
        legal_qp = prepared.legal_qp
        escalations = escalations or []

        y, _r = split_kkt_solution(mmsim_result.z, legal_qp.num_variables)
        x = legal_qp.to_positions(y)

        with tracer.span("restore"):
            max_mm, mean_mm = restore_cells(
                design, prepared.model, x, legal_qp.x_origin
            )

        with tracer.span("tetris") as span:
            tetris_stats = tetris_allocate(design)
            span.set_attributes(
                num_illegal=tetris_stats.num_illegal,
                suspects=tetris_stats.num_suspects,
            )
            metrics.counter("legalizer.illegal_after_qp").inc(
                tetris_stats.num_illegal
            )
            if tetris_stats.fence_spill_cells:
                metrics.counter("fence.spill_cells").inc(
                    tetris_stats.fence_spill_cells
                )

        # Mandatory post-flow audit: the flow must never report
        # success on an illegal placement, whatever path (fallbacks
        # included) produced it.  The checker is independent of the
        # legalizer's own bookkeeping by design.
        with tracer.span("audit") as span:
            legality = check_legality(design)
            span.set_attributes(
                violations=len(legality.violations),
                flagged_cells=legality.num_flagged,
            )
            if not legality.is_legal:
                metrics.counter("legalizer.audit_violations").inc(
                    len(legality.violations)
                )

        with tracer.span("metrics"):
            disp = displacement_stats(design)
            wl = wirelength_stats(design) if design.nets else None
            if tel.enabled:
                metrics.counter("legalizer.cells_moved").inc(
                    sum(
                        1
                        for c in design.movable_cells
                        if c.x != c.gp_x or c.y != c.gp_y
                    )
                )
                metrics.histogram("legalizer.displacement_sites").observe(
                    disp.total_manhattan_sites
                )

        return LegalizationResult(
            design_name=design.name,
            num_cells=len(design.movable_cells),
            num_variables=legal_qp.num_variables,
            num_constraints=legal_qp.num_constraints,
            converged=mmsim_result.converged,
            iterations=mmsim_result.iterations,
            lcp_residual=mmsim_result.residual,
            y_displacement=prepared.assignment.y_displacement,
            max_subcell_mismatch=max_mm,
            mean_subcell_mismatch=mean_mm,
            tetris=tetris_stats,
            displacement=disp,
            wirelength=wl,
            stage_seconds={},
            qp_objective=legal_qp.qp.objective(y),
            solver_escalations=escalations,
            kkt_solution=mmsim_result.z,
            legality=legality,
            warm_start=prepared.warm_start,
            warm_start_rejected=prepared.warm_start_rejected,
        )

    # ------------------------------------------------------------------
    def _warm_start(self, legal_qp: LegalizationQP) -> np.ndarray:
        """Warm start s⁰ from the GP targets.

        For s >= 0, z = (|s|+s)/γ = 2s/γ, so with the solver's γ = 2,
        s⁰ = [max(x_gp, 0); 0] makes the first modulus iterate start at
        the GP positions with zero multipliers.
        """
        x0 = np.maximum(-legal_qp.qp.p, 0.0)
        s0 = np.zeros(legal_qp.num_variables + legal_qp.num_constraints)
        s0[: legal_qp.num_variables] = x0
        return s0


def legalize(
    design: Design,
    config: Optional[LegalizerConfig] = None,
    warm_start_z: "Optional[np.ndarray | SolverState]" = None,
    reuse: Optional[ReuseCache] = None,
) -> LegalizationResult:
    """Convenience function: run the full MMSIM legalization flow.

    ``warm_start_z`` seeds the MMSIM from a previous run's
    :attr:`LegalizationResult.kkt_solution` — either the raw vector
    (dimension-checked only) or a :class:`~repro.core.state.SolverState`,
    which additionally carries a design fingerprint.  A stale state (wrong
    dimension, or a fingerprint from a structurally different design) is
    *rejected*: a :class:`~repro.core.state.StaleWarmStart` warning is
    emitted and the run falls back to the GP warm start instead of
    crashing mid-sweep or silently warping the start point.

    ``reuse`` carries a :class:`~repro.core.setup_cache.ReuseCache` across
    runs: a re-run whose matrices and scalars equal the previous run's
    reuses its Woodbury/pttrf setups bit-identically instead of
    refactorizing.  A run swaps its own setups in as the cache's one
    kept generation when it ends, so a concurrent run could take setups
    from a generation it never compared its matrices with: never share
    one ReuseCache between concurrent runs.
    """
    return MMSIMLegalizer(config).legalize(
        design, warm_start_z=warm_start_z, reuse=reuse
    )


def legalize_incremental(
    design: Design,
    movable_ids,
    config: Optional[LegalizerConfig] = None,
) -> LegalizationResult:
    """ECO-style incremental legalization (extension beyond the paper).

    Re-legalizes only the cells in *movable_ids*; every other movable cell
    is treated as a fixed obstacle at its current (presumed legal)
    position — the QP anchors segments around them and the Tetris stage
    never moves them.  Typical use: a timing or ECO step nudged a handful
    of cells off-grid, and the rest of the placement must not churn.
    """
    movable_ids = set(movable_ids)
    frozen = [
        cell
        for cell in design.movable_cells
        if cell.id not in movable_ids
    ]
    for cell in frozen:
        cell.fixed = True
    try:
        result = MMSIMLegalizer(config).legalize(design)
    finally:
        for cell in frozen:
            cell.fixed = False
    return result
