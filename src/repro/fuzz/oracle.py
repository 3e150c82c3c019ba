"""The differential oracle: one scenario, every solver configuration.

For each case the oracle legalizes fresh builds of the same design under
the full solver-configuration matrix (sharded / monolithic / kernel
backends / fault-injected ladder rungs / warm-started / setup-reuse
rerun) and checks:

* **bit-identity** where the repo promises it (the cached-setup rerun
  reproduces the baseline's KKT vector and final placement
  bit-for-bit),
* **tolerance equivalence** elsewhere (monolithic, injected rungs, warm
  starts: same QP optimum within solver tolerance),
* the **KKT natural-residual certificate** on every converged solution,
* **post-flow legality** (movable cells only: adversarial fixed obstacles
  are allowed to be illegal *inputs*),
* **exact-reference agreement**: small QPs are re-solved with the dense
  active-set oracle (:mod:`repro.qp.reference`) and objectives compared,
* **displacement accounting** (reported totals recompute from positions),
* **metamorphic invariants**: translation invariance, idempotence, and
  Bookshelf write -> read -> legalize determinism,
* **warm-start hygiene**: a fresh same-design state must be accepted; a
  stale state from a *different* design must be rejected without
  perturbing the result.
"""

from __future__ import annotations

import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.legalizer import LegalizationResult, LegalizerConfig, MMSIMLegalizer
from repro.core.qp_builder import LegalizationQP, build_legalization_qp
from repro.core.resilience import ResilienceConfig
from repro.core.row_assign import assign_rows
from repro.core.setup_cache import ReuseCache
from repro.core.state import SolverState, StaleWarmStart, design_fingerprint
from repro.core.subcells import split_cells
from repro.fuzz.generator import Scenario, relegalization_input, translate_design
from repro.fuzz.invariants import (
    CaseReport,
    movable_violations,
    snapshot_arrays,
    summarize_mismatch,
)
from repro.io import read_design, write_design
from repro.lcp.problem import split_kkt_solution
from repro.netlist.design import Design
from repro.qp.reference import ACTIVE_SET_LIMIT, solve_reference
from repro.rows import InfeasibleAssignment
from repro.telemetry import current_session

#: Solver tolerances used for every config — much tighter than the
#: production default so tolerance-group comparisons are meaningful.
TOL = 1e-6
RESIDUAL_TOL = 1e-5
#: Deliberately modest: a design that needs more sweeps escalates to
#: the (fast, exact) PSOR/Lemke rungs, which both exercises the
#: ladder and keeps the campaign's worst-case wall clock bounded.
MAX_ITERATIONS = 2000
LAM = 1000.0
#: KKT-certificate bound on converged solutions, scaled by (1 + |z|∞).
RESIDUAL_BOUND = 1e-4
#: QP-stage constraint violation bound (order/boundary rows), in DB
#: units scaled by the site width.
FEASIBILITY_SITES = 1e-3
#: Tolerance-group agreement: |y - y_base|∞ bound in site widths.
AGREEMENT_SITES = 0.02
#: Relative objective-gap bound vs the baseline / exact reference.
#: Calibrated to the solver promise, not to zero: at tolerance ``TOL``
#: the λ-weighted penalty terms (λ = 1000) let a converged iterate
#: sit ~λ·tol·|Δy| away from the exact optimum — observed gaps on
#: healthy designs reach ~5e-5, real bugs show up orders above that.
OBJECTIVE_RTOL = 3e-4


@dataclass
class OracleOptions:
    """Which configs and invariants the differential oracle checks."""

    #: Restrict to these config names (None = all).  The shrinker uses
    #: this to re-check only the configs involved in the original failure.
    configs: Optional[Sequence[str]] = None
    #: Restrict to these invariants (None = all); the metamorphic,
    #: round-trip and exact-reference checks run only when selected.
    invariants: Optional[Set[str]] = None

    def wants(self, invariant: str) -> bool:
        return self.invariants is None or invariant in self.invariants


@dataclass
class RunRecord:
    """One configuration's outcome on one scenario build."""

    name: str
    group: str
    design: Optional[Design] = None
    result: Optional[LegalizationResult] = None
    error: Optional[BaseException] = None
    warnings: List[warnings.WarningMessage] = field(default_factory=list)
    snapshot: Optional[tuple] = None

    @property
    def clamp_won(self) -> bool:
        return self.result is not None and any(
            e.winner == "clamp" for e in self.result.solver_escalations
        )

    @property
    def comparable(self) -> bool:
        """Converged to the QP optimum (no clamp rung, MMSIM converged)."""
        return (
            self.result is not None
            and self.result.converged
            and not self.clamp_won
        )

    def y(self, num_variables: int) -> Optional[np.ndarray]:
        if self.result is None or self.result.kkt_solution is None:
            return None
        y, _ = split_kkt_solution(self.result.kkt_solution, num_variables)
        return y


def _base_config(overrides: dict) -> LegalizerConfig:
    """One matrix point's config: oracle base + the point's overrides.

    The base pins min_shard_variables=1 — single-component granularity,
    where every component stops on its own (the production default,
    merged micro-shards, is a separate tolerance-group point: merging
    changes sweep stopping points, so it is tolerance-equivalent, not
    bitwise) — and a 1x safe-kernel
    iteration cap, so a hard shard fails over to the fast exact
    PSOR/Lemke rungs instead of grinding, which bounds the campaign's
    worst-case wall clock.
    """
    kw = dict(overrides)
    kw.setdefault("min_shard_variables", 1)
    kw.setdefault("resilience", ResilienceConfig(safe_iteration_factor=1.0))
    return LegalizerConfig(
        lam=LAM, tol=TOL, residual_tol=RESIDUAL_TOL,
        max_iterations=MAX_ITERATIONS, **kw,
    )


def oracle_configs(opts: OracleOptions) -> List[Tuple[str, LegalizerConfig, str]]:
    """The configuration matrix: (name, config, comparison group).

    Groups: ``identity`` must match the baseline bit-for-bit;
    ``tolerance`` must agree within solver tolerance; ``sliced`` is the
    fence-slice refinement.  The ``reuse`` and ``fence_slices`` points
    are executed specially by :func:`run_oracle_design` (cache-warmed
    rerun / per-fence-group pre-sliced designs).

    The matrix itself is *generated* from the declarative legalizer
    spec — :func:`repro.scenario.matrix.oracle_matrix` expands the
    one-factor tolerance axes, the kernel-backend points and the
    injection-ladder rungs through
    ``ScenarioSpec.enumerate_valid`` — so an invalid combination can
    never enter the campaign, and a new ``LegalizerConfig`` knob
    without oracle coverage (or an explicit exemption) fails
    ``repro spec check``.
    """
    from repro.scenario.matrix import oracle_matrix

    matrix = [
        (point.name, _base_config(dict(point.overrides)), point.group)
        for point in oracle_matrix()
    ]
    if opts.configs is not None:
        keep = set(opts.configs) | {"baseline"}
        matrix = [row for row in matrix if row[0] in keep]
    return matrix


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute(
    name: str,
    group: str,
    cfg: LegalizerConfig,
    design: Design,
    warm_start=None,
    reuse: Optional[ReuseCache] = None,
) -> RunRecord:
    rec = RunRecord(name=name, group=group, design=design)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rec.result = MMSIMLegalizer(cfg).legalize(
                design, warm_start_z=warm_start, reuse=reuse
            )
        except BaseException as exc:  # noqa: BLE001 — the oracle's whole job
            rec.error = exc
            return rec
    rec.warnings = list(caught)
    rec.snapshot = snapshot_arrays(design)
    return rec


def _build_qp(design: Design) -> LegalizationQP:
    assignment = assign_rows(design)
    model = split_cells(design, assignment)
    return build_legalization_qp(design, model, lam=LAM)


def run_oracle(
    scenario: Scenario,
    opts: Optional[OracleOptions] = None,
    stale_state: Optional[SolverState] = None,
) -> CaseReport:
    """Run the full differential matrix on one scenario."""
    opts = opts or OracleOptions()
    factory = scenario.build
    probe = factory()
    report = CaseReport(
        seed=scenario.seed, kind=scenario.kind, num_cells=probe.num_cells
    )
    if scenario.expect_infeasible:
        _check_infeasible(factory, opts, report)
        return report
    run_oracle_design(
        factory,
        opts,
        report,
        stale_state=stale_state,
        meta_seed=scenario.seed,
    )
    return report


def run_oracle_design(
    factory: Callable[[], Design],
    opts: OracleOptions,
    report: Optional[CaseReport] = None,
    stale_state: Optional[SolverState] = None,
    meta_seed: int = 0,
) -> CaseReport:
    """Differential matrix on an arbitrary design factory (shrinker entry)."""
    if report is None:
        report = CaseReport(seed=meta_seed, kind="design", num_cells=factory().num_cells)
    metrics = current_session().metrics

    runs: Dict[str, RunRecord] = {}
    for name, cfg, group in oracle_configs(opts):
        if name == "fence_slices":
            continue  # needs the finished baseline; runs below
        if name == "reuse":
            # Cold warm-up populates the cache; the rerun on a fresh
            # build must then reproduce the baseline bit-for-bit while
            # serving its splittings from the cache.
            cache = ReuseCache()
            rec = _execute(name, group, cfg, factory(), reuse=cache)
            if rec.error is None:
                rec = _execute(name, group, cfg, factory(), reuse=cache)
        else:
            rec = _execute(name, group, cfg, factory())
        runs[name] = rec
        report.configs_run.append(name)
        if isinstance(rec.error, InfeasibleAssignment):
            if opts.wants("unexpected_infeasible"):
                report.add(
                    "unexpected_infeasible", name,
                    f"feasible scenario rejected: {rec.error}",
                )
            metrics.counter("fuzz.invariant_violations").inc()
            return report
        if rec.error is not None:
            if opts.wants("crash"):
                report.add(
                    "crash", name,
                    f"{type(rec.error).__name__}: {rec.error}",
                )
            return report

    base = runs["baseline"]
    if base.result.kkt_solution is not None:
        report.extras["solver_state"] = SolverState.from_result(
            base.design, base.result
        )
    _check_legality(runs, opts, report)
    _check_identity(runs, base, opts, report)
    qp = _check_certificates(runs, base, factory, opts, report)
    _check_tolerance_group(runs, base, qp, opts, report)
    _check_accounting(runs, opts, report)
    _check_translation(factory, base, opts, report, meta_seed)
    _check_idempotence(base, opts, report)
    if opts.wants("roundtrip"):
        _check_roundtrip(base, opts, report)
    if any(name == "fence_slices" for name, _, _ in oracle_configs(opts)):
        _check_fence_slices(factory, base, opts, report)
    _check_warm_start(factory, base, opts, report)
    if stale_state is not None:
        _check_stale_state(factory, base, stale_state, opts, report)
    if report.failures:
        metrics.counter("fuzz.invariant_violations").inc(len(report.failures))
    return report


# ----------------------------------------------------------------------
# Individual oracles
# ----------------------------------------------------------------------
def _check_infeasible(
    factory: Callable[[], Design], opts: OracleOptions, report: CaseReport
) -> None:
    report.infeasible = True
    if not opts.wants("expected_infeasible"):
        return
    _, cfg, _ = oracle_configs(opts)[0]
    try:
        MMSIMLegalizer(cfg).legalize(factory())
    except InfeasibleAssignment as exc:
        if exc.cell_name is None:
            report.add(
                "expected_infeasible", "baseline",
                f"InfeasibleAssignment lacks the offending cell name: {exc}",
            )
        return
    except Exception as exc:  # noqa: BLE001
        report.add(
            "expected_infeasible", "baseline",
            "infeasible design raised unstructured "
            f"{type(exc).__name__}: {exc}",
        )
        return
    report.add(
        "expected_infeasible", "baseline",
        "infeasible design legalized without raising InfeasibleAssignment",
    )


def _check_legality(
    runs: Dict[str, RunRecord], opts: OracleOptions, report: CaseReport
) -> None:
    if not opts.wants("legality"):
        return
    for rec in runs.values():
        legality = rec.result.legality
        if legality is None:
            report.add("legality", rec.name, "result carries no audit report")
            continue
        bad = movable_violations(legality, rec.design)
        if bad:
            report.add(
                "legality", rec.name,
                f"{len(bad)} movable-cell violation(s); first: {bad[0].message}",
            )


def _check_identity(
    runs: Dict[str, RunRecord],
    base: RunRecord,
    opts: OracleOptions,
    report: CaseReport,
) -> None:
    if not opts.wants("bit_identity"):
        return
    base_z = base.result.kkt_solution
    for rec in runs.values():
        if rec.group != "identity":
            continue
        z = rec.result.kkt_solution
        if base_z is None or z is None or not np.array_equal(base_z, z):
            report.add(
                "bit_identity", rec.name,
                "KKT vector differs from baseline ("
                + summarize_mismatch(z, base_z, "z")
                + ")",
            )
            continue
        for arr, ref, label in zip(rec.snapshot, base.snapshot,
                                   ("x", "y", "flipped", "site", "row")):
            if not np.array_equal(arr, ref):
                report.add(
                    "bit_identity", rec.name,
                    summarize_mismatch(arr, ref, f"final {label}"),
                )
                break


def _check_certificates(
    runs: Dict[str, RunRecord],
    base: RunRecord,
    factory: Callable[[], Design],
    opts: OracleOptions,
    report: CaseReport,
) -> Optional[LegalizationQP]:
    """KKT residual + QP feasibility + exact-reference agreement."""
    needed = any(
        opts.wants(k)
        for k in ("kkt_residual", "qp_feasibility", "reference", "solver_agreement")
    )
    if not needed:
        return None
    qp = _build_qp(factory())
    n = qp.num_variables
    # The converged solution honors constraints only to within the
    # solver's absolute tolerance, so the slack cannot shrink below it
    # even when the site width (and with it the site-relative term) does.
    feas_tol = max(FEASIBILITY_SITES * base.design.core.site_width, 10.0 * TOL)

    for rec in runs.values():
        if not rec.comparable or rec.result.kkt_solution is None:
            continue
        z = rec.result.kkt_solution
        y, r = split_kkt_solution(z, n)
        if opts.wants("kkt_residual"):
            bound = RESIDUAL_BOUND * (1.0 + float(np.abs(z).max(initial=0.0)))
            res = qp.qp.kkt_residual(y, r)
            if res > bound:
                report.add(
                    "kkt_residual", rec.name,
                    f"KKT certificate residual {res:.3g} > bound {bound:.3g}",
                )
        if opts.wants("qp_feasibility"):
            viol = qp.qp.constraint_violation(y)
            if viol > feas_tol:
                report.add(
                    "qp_feasibility", rec.name,
                    f"QP order/boundary violation {viol:.3g} > {feas_tol:.3g}",
                )

    if (
        opts.wants("reference")
        and base.comparable
        and not base.result.solver_escalations
        and 0 < n <= ACTIVE_SET_LIMIT
    ):
        y_base = base.y(n)
        ref = solve_reference(qp.qp)
        if ref.converged:
            obj = qp.qp.objective(y_base)
            gap = abs(obj - ref.objective) / (1.0 + abs(ref.objective))
            if gap > OBJECTIVE_RTOL:
                report.add(
                    "reference", "baseline",
                    f"objective {obj:.9g} vs exact reference "
                    f"{ref.objective:.9g} (rel gap {gap:.3g}, "
                    f"method {ref.method})",
                )
    return qp


def _check_tolerance_group(
    runs: Dict[str, RunRecord],
    base: RunRecord,
    qp: Optional[LegalizationQP],
    opts: OracleOptions,
    report: CaseReport,
) -> None:
    if qp is None or not opts.wants("solver_agreement") or not base.comparable:
        return
    n = qp.num_variables
    y_base = base.y(n)
    obj_base = qp.qp.objective(y_base)
    y_tol = AGREEMENT_SITES * base.design.core.site_width
    for rec in runs.values():
        if rec.group != "tolerance" or not rec.comparable:
            continue
        y = rec.y(n)
        if y is None:
            continue
        dy = float(np.abs(y - y_base).max(initial=0.0))
        gap = abs(qp.qp.objective(y) - obj_base) / (1.0 + abs(obj_base))
        if dy > y_tol or gap > OBJECTIVE_RTOL:
            report.add(
                "solver_agreement", rec.name,
                f"|y - y_base|inf = {dy:.3g} (tol {y_tol:.3g}), "
                f"objective rel gap {gap:.3g}",
            )


def _check_accounting(
    runs: Dict[str, RunRecord], opts: OracleOptions, report: CaseReport
) -> None:
    if not opts.wants("displacement_accounting"):
        return
    for rec in runs.values():
        result, design = rec.result, rec.design
        if result.displacement is None:
            continue
        total = sum(c.displacement() for c in design.movable_cells)
        reported = result.displacement.total_manhattan
        if not np.isclose(total, reported, rtol=1e-9, atol=1e-12):
            report.add(
                "displacement_accounting", rec.name,
                f"reported manhattan {reported!r} != recomputed {total!r}",
            )
            continue
        sites = result.displacement.total_manhattan_sites
        expect = total / design.core.site_width
        if not np.isclose(sites, expect, rtol=1e-9, atol=1e-12):
            report.add(
                "displacement_accounting", rec.name,
                f"site-unit total {sites!r} != manhattan/site_width {expect!r}",
            )


def _baseline_config(opts: OracleOptions) -> LegalizerConfig:
    return oracle_configs(opts)[0][1]


def _check_translation(
    factory: Callable[[], Design],
    base: RunRecord,
    opts: OracleOptions,
    report: CaseReport,
    meta_seed: int,
) -> None:
    if not opts.wants("translation"):
        return
    dx = 3 + (meta_seed % 13)
    dy = 1 + (meta_seed % 5)
    shifted = translate_design(factory(), dx, dy)
    rec = _execute("translation", "meta", _baseline_config(opts), shifted)
    if rec.error is not None:
        report.add(
            "translation", "baseline",
            f"shifted design raised {type(rec.error).__name__}: {rec.error}",
        )
        return
    for idx, label in ((3, "site index"), (4, "row index"), (2, "flip")):
        if not np.array_equal(rec.snapshot[idx], base.snapshot[idx]):
            report.add(
                "translation", "baseline",
                f"shift by ({dx} sites, {dy} rows) changed the placement: "
                + summarize_mismatch(rec.snapshot[idx], base.snapshot[idx], label),
            )
            return


def _check_idempotence(
    base: RunRecord, opts: OracleOptions, report: CaseReport
) -> None:
    if not opts.wants("idempotence") or not base.result.audit_clean:
        return
    again = relegalization_input(base.design)
    rec = _execute("idempotence", "meta", _baseline_config(opts), again)
    if rec.error is not None:
        report.add(
            "idempotence", "baseline",
            f"re-legalization raised {type(rec.error).__name__}: {rec.error}",
        )
        return
    for idx, label in ((0, "x"), (1, "y")):
        if not np.array_equal(rec.snapshot[idx], base.snapshot[idx]):
            report.add(
                "idempotence", "baseline",
                "legalizing an already-legal placement moved cells: "
                + summarize_mismatch(rec.snapshot[idx], base.snapshot[idx], label),
            )
            return


def _fence_slices(design: Design) -> List[Tuple[str, Design]]:
    """Pre-sliced per-group designs equivalent to the fenced *design*.

    One slice per fence (its movable members + every fixed cell + the
    fence itself) plus one slice for the unfenced cells (which keeps
    every fence as a member-less exclusion zone).  Slices copy the GP
    positions, so legalizing a slice reproduces exactly the group's
    partition of the full design's constraint systems.
    """
    membership = design.fence_index_by_cell_id()
    slices: List[Tuple[str, Design]] = []
    for gi, fence in enumerate(design.fences):
        out = Design(name=f"{design.name}_fg{gi}", core=design.core)
        present = []
        for cell in design.cells:
            if cell.fixed or membership.get(cell.id) == gi:
                new = out.add_cell(
                    cell.name, cell.master, cell.gp_x, cell.gp_y,
                    fixed=cell.fixed,
                )
                new.x, new.y = cell.x, cell.y
                if not cell.fixed:
                    present.append(cell.name)
        out.add_fence(fence.name, fence.rects, present)
        slices.append((f"fence {fence.name!r}", out))
    out = Design(name=f"{design.name}_fgu", core=design.core)
    for cell in design.cells:
        if cell.fixed or cell.id not in membership:
            new = out.add_cell(
                cell.name, cell.master, cell.gp_x, cell.gp_y, fixed=cell.fixed
            )
            new.x, new.y = cell.x, cell.y
    for fence in design.fences:
        out.add_fence(fence.name, fence.rects, [])
    slices.append(("unfenced group", out))
    return slices


def _check_fence_slices(
    factory: Callable[[], Design],
    base: RunRecord,
    opts: OracleOptions,
    report: CaseReport,
) -> None:
    if not opts.wants("fence_slices") or not base.design.fences:
        return
    report.configs_run.append("fence_slices")
    legalized = {c.name: c for c in base.design.cells}
    for label, slice_design in _fence_slices(factory()):
        rec = _execute(
            "fence_slices", "sliced", _baseline_config(opts), slice_design
        )
        if rec.error is not None:
            report.add(
                "fence_slices", "fence_slices",
                f"pre-sliced run ({label}) raised "
                f"{type(rec.error).__name__}: {rec.error}",
            )
            return
        for cell in slice_design.cells:
            if cell.fixed:
                continue
            ref = legalized[cell.name]
            if (cell.x, cell.y, cell.flipped) != (ref.x, ref.y, ref.flipped):
                report.add(
                    "fence_slices", "fence_slices",
                    f"pre-sliced run ({label}) placed {cell.name} at "
                    f"({cell.x!r}, {cell.y!r}, flip={cell.flipped}) but the "
                    f"fence-on run chose ({ref.x!r}, {ref.y!r}, "
                    f"flip={ref.flipped})",
                )
                return


def _check_roundtrip(
    base: RunRecord, opts: OracleOptions, report: CaseReport
) -> None:
    with tempfile.TemporaryDirectory(prefix="repro_fuzz_rt_") as tmp:
        src = base.design
        fresh = Design(name=src.name, core=src.core)
        for cell in src.cells:
            fresh.add_cell(cell.name, cell.master, cell.gp_x, cell.gp_y,
                           fixed=cell.fixed)
        for fence in src.fences:
            fresh.add_fence(fence.name, fence.rects, fence.members)
        aux = write_design(fresh, tmp, basename="rt")
        reread = read_design(aux)
    # Coordinate fidelity first: the writer promises bitwise round-trips
    # (repr-based formatting), and the legalize-and-compare step below
    # cannot see a precision regression on its own — site snapping absorbs
    # sub-site coordinate drift, so final positions still match bitwise.
    src_gp = np.array([(c.gp_x, c.gp_y, c.width) for c in fresh.cells])
    rt_gp = np.array([(c.gp_x, c.gp_y, c.width) for c in reread.cells])
    if src_gp.shape != rt_gp.shape:
        report.add(
            "roundtrip", "baseline",
            f"Bookshelf write -> read changed the cell list: "
            f"{src_gp.shape[0]} cells written, {rt_gp.shape[0]} read back",
        )
        return
    if not np.array_equal(src_gp, rt_gp):
        report.add(
            "roundtrip", "baseline",
            "Bookshelf write -> read did not reproduce coordinates bitwise: "
            + summarize_mismatch(rt_gp, src_gp, "gp coordinate"),
        )
        return
    src_core = (fresh.core.xl, fresh.core.yl, fresh.core.site_width,
                fresh.core.row_height)
    rt_core = (reread.core.xl, reread.core.yl, reread.core.site_width,
               reread.core.row_height)
    if src_core != rt_core:
        report.add(
            "roundtrip", "baseline",
            f"Bookshelf write -> read changed core geometry: "
            f"{src_core} -> {rt_core}",
        )
        return
    rec = _execute("roundtrip", "meta", _baseline_config(opts), reread)
    if rec.error is not None:
        report.add(
            "roundtrip", "baseline",
            f"re-read design raised {type(rec.error).__name__}: {rec.error}",
        )
        return
    for idx, label in ((0, "x"), (1, "y"), (2, "flipped")):
        if not np.array_equal(rec.snapshot[idx], base.snapshot[idx]):
            report.add(
                "roundtrip", "baseline",
                "Bookshelf write -> read -> legalize is not bit-identical: "
                + summarize_mismatch(rec.snapshot[idx], base.snapshot[idx], label),
            )
            return


def _check_warm_start(
    factory: Callable[[], Design],
    base: RunRecord,
    opts: OracleOptions,
    report: CaseReport,
) -> None:
    if not opts.wants("warm_start") or base.result.kkt_solution is None:
        return
    state = SolverState.from_result(base.design, base.result)
    rec = _execute(
        "warm_start", "meta", _baseline_config(opts), factory(), warm_start=state
    )
    if rec.error is not None:
        report.add(
            "warm_start", "baseline",
            f"warm-started run raised {type(rec.error).__name__}: {rec.error}",
        )
        return
    if any(issubclass(w.category, StaleWarmStart) for w in rec.warnings):
        report.add(
            "warm_start", "baseline",
            "fresh same-design state was rejected as stale "
            "(design fingerprint is not build-deterministic?)",
        )
        return
    if not np.array_equal(rec.snapshot[3], base.snapshot[3]) or not np.array_equal(
        rec.snapshot[4], base.snapshot[4]
    ):
        report.add(
            "warm_start", "baseline",
            "warm-started re-run landed on different sites/rows: "
            + summarize_mismatch(rec.snapshot[3], base.snapshot[3], "site index"),
        )


def _check_stale_state(
    factory: Callable[[], Design],
    base: RunRecord,
    stale: SolverState,
    opts: OracleOptions,
    report: CaseReport,
) -> None:
    if not opts.wants("stale_state"):
        return
    design = factory()
    if stale.fingerprint == design_fingerprint(design):
        return  # genuinely fresh; nothing to test
    rec = _execute(
        "stale_state", "meta", _baseline_config(opts), design, warm_start=stale
    )
    if rec.error is not None:
        report.add(
            "stale_state", "baseline",
            f"stale warm start crashed the run: "
            f"{type(rec.error).__name__}: {rec.error}",
        )
        return
    warned = any(issubclass(w.category, StaleWarmStart) for w in rec.warnings)
    z_base = base.result.kkt_solution
    z = rec.result.kkt_solution
    same = z_base is not None and z is not None and np.array_equal(z, z_base)
    if not warned or not same:
        detail = []
        if not warned:
            detail.append("no StaleWarmStart warning was emitted")
        if not same:
            detail.append("the stale vector perturbed the solution "
                          + summarize_mismatch(z, z_base, "(z"))
        report.add("stale_state", "baseline", "; ".join(detail))


__all__ = [
    "OracleOptions",
    "RunRecord",
    "oracle_configs",
    "run_oracle",
    "run_oracle_design",
]
