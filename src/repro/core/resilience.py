"""Per-shard solver fallback chain: guaranteed-no-worse legalization.

The paper's flow budgets for MMSIM *imperfection* (Table 1's ~0.03%
illegal cells, repaired by the Tetris stage) but not for MMSIM *failure*:
a shard that stalls past ``max_iterations`` — or a kernel that raises —
would otherwise propagate ``converged=False`` and whatever half-iterated
positions the sweep left behind.  High-utilization regimes are exactly
where legalizers break down (Cong et al., *Locality and Utilization in
Placement Suboptimality*), so the production flow must degrade gracefully
instead of silently emitting a regressed placement.

This module re-solves *only the failing shard* down an escalation ladder:

1. ``mmsim``       — the primary solve (the paper's Eq. (16) splitting
                     with the fast Woodbury/LAPACK kernels);
2. ``mmsim_safe``  — the same iteration on SuperLU factorizations of
                     both block solves, tested after every sweep, with a
                     fixed conservative damping (ω = 0.5): rules out
                     fast-kernel numerics and collapses the 2-cycles the
                     plain iteration can enter;
3. ``psor``        — projected SOR on the *dual* Schur-complement LCP
                     (``repro.qp.dual``): a completely different
                     iteration on a positive-diagonal system, immune to
                     the KKT splitting's failure modes, with its sweeps
                     bounded by :data:`PSOR_WORK_BUDGET`;
4. ``lemke``       — exact complementary pivoting on the KKT LCP
                     (finite, no spectral conditions), for shards small
                     enough for the dense tableau;
5. ``clamp``       — the terminal fallback: cells return to their
                     pre-solve positions and the Tetris-like allocation
                     stage absorbs every remaining overlap.

Every rung's candidate is *audited* against the shard's own KKT LCP (the
natural residual must clear the MMSIM options' ``residual_tol``, else
their ``tol``) before it is accepted, so a fallback can never hand the
flow a solution worse than it claims; a candidate that clears the audit
wins even when its rung stopped at a sweep cap.  The terminal clamp
makes the chain total: combined with the Tetris stage's totality
(compaction + eviction) and the flow's mandatory post-flow legality
audit, ``repro legalize`` always terminates with a legal placement whose
displacement is no worse than legalizing the pre-solve positions
directly — the *no-worse contract*.

Deterministic fault injection (:attr:`ResilienceConfig.inject`) forces
chosen rungs to fail on chosen shards, so every rung and the terminal
clamp are testable in CI without hunting for pathological designs::

    ResilienceConfig(inject={"*": ["mmsim"]})          # fail every shard
    ResilienceConfig(inject={3: ["mmsim", "psor"]})    # shard 3 only

Escalations are recorded as :class:`ShardEscalation` values (surfaced on
``LegalizationResult.solver_escalations``), counted in the metrics
registry (``resilience.*``), and emitted as one ``escalation`` event per
failed shard on the session event sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.splitting import LegalizationSplitting
from repro.lcp.lemke import LemkeOptions, lemke_solve
from repro.lcp.mmsim import MMSIMOptions, mmsim_solve
from repro.lcp.problem import LCP, LCPResult
from repro.lcp.psor import PSOROptions, psor_solve
from repro.telemetry import current_session

#: Ladder rungs, in escalation order.  ``clamp`` is terminal and cannot
#: fail (or be injected to fail).
RUNGS = ("mmsim", "mmsim_safe", "psor", "lemke", "clamp")

#: ``inject`` key selecting every shard.
ALL_SHARDS = "*"

#: Fixed damping for the safe-kernel MMSIM retry (collapses the
#: 2-cycles that survive the in-solver auto rescue).
SAFE_DAMPING = 0.5

#: PSOR rung parameters: relaxation, stopping tolerance and sweep cap.
PSOR_RELAX = 1.2
PSOR_TOL = 1e-10
PSOR_MAX_ITERATIONS = 50000

#: Row updates one PSOR attempt may spend: rung 3 sweeps at most
#: ``min(PSOR_MAX_ITERATIONS, PSOR_WORK_BUDGET // m)`` times.  Each sweep
#: is a pure-Python pass over the m dual rows (~5–6 µs a row on a 2-vCPU
#: x86 container), so the budget holds one attempt to under ~10 s.
PSOR_WORK_BUDGET = 1_500_000

#: The dual LCP densifies to m × m; skip PSOR on larger shards.
PSOR_MAX_CONSTRAINTS = 4000

#: Lemke's dense tableau is (n+m) × 2(n+m); skip on larger shards.
LEMKE_MAX_VARIABLES = 800
LEMKE_MAX_PIVOTS = 20000


class FaultInjected(RuntimeError):
    """Raised internally when a rung is forced to fail by injection."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Controls for the per-shard solver fallback chain.

    ``inject`` is the deterministic fault-injection hook: a mapping from
    shard index (or ``"*"`` for every shard) to an iterable of rung names
    that must fail on that shard.  An injected rung is skipped without
    running and recorded with status ``"injected"`` — CI uses this to
    exercise every rung of the ladder on healthy designs.

    The rungs' other parameters are the module constants above.
    """

    inject: Optional[Mapping[Union[int, str], Tuple[str, ...]]] = None
    #: ``max_iterations`` multiplier for the safe retry.
    safe_iteration_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.inject is None:
            return
        for key, rungs in self.inject.items():
            if key != ALL_SHARDS and not isinstance(key, int):
                raise ValueError(
                    f"inject keys must be shard indices or '*', got {key!r}"
                )
            for rung in rungs:
                if rung == "clamp":
                    raise ValueError(
                        "the terminal 'clamp' rung cannot be injected to fail"
                    )
                if rung not in RUNGS:
                    raise ValueError(
                        f"unknown rung {rung!r}; valid rungs: {RUNGS[:-1]}"
                    )

    def should_fail(self, shard_index: int, rung: str) -> bool:
        """Whether injection forces *rung* to fail on shard *shard_index*."""
        if self.inject is None:
            return False
        for key in (shard_index, ALL_SHARDS):
            if rung in self.inject.get(key, ()):
                return True
        return False


@dataclass
class RungAttempt:
    """One rung's outcome while solving a shard."""

    rung: str
    #: ``"won"`` | ``"failed"`` | ``"rejected"`` | ``"injected"`` |
    #: ``"skipped"`` | ``"raised"``
    status: str
    iterations: int = 0
    residual: float = math.nan
    detail: str = ""


@dataclass
class ShardEscalation:
    """The full ladder walk of one shard that failed its primary solve."""

    shard_index: int
    num_variables: int
    num_constraints: int
    attempts: List[RungAttempt] = field(default_factory=list)

    @property
    def winner(self) -> str:
        """The rung whose solution was accepted (``clamp`` at worst)."""
        for attempt in self.attempts:
            if attempt.status == "won":
                return attempt.rung
        return "clamp"

    @property
    def primary_iterations(self) -> int:
        """Sweeps of the shard's primary MMSIM (rung 1); 0 when that
        attempt was injected or raised."""
        for attempt in self.attempts:
            if attempt.rung == "mmsim":
                return attempt.iterations
        return 0

    @property
    def solved(self) -> bool:
        """True when some rung produced a certified LCP solution (the
        terminal clamp does not — it defers to the Tetris stage)."""
        return self.winner != "clamp"

    def summary(self) -> str:
        trail = " -> ".join(
            f"{a.rung}[{a.status}]" for a in self.attempts
        )
        return f"shard {self.shard_index}: {trail}"


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------
def solve_shard_resilient(
    lcp: LCP,
    splitting: LegalizationSplitting,
    options: Optional[MMSIMOptions] = None,
    s0: Optional[np.ndarray] = None,
    config: Optional[ResilienceConfig] = None,
    shard_index: int = 0,
    z0: Optional[np.ndarray] = None,
    primary_result: Optional[LCPResult] = None,
) -> Tuple[LCPResult, Optional[ShardEscalation]]:
    """Solve one shard's KKT LCP down the fallback ladder.

    ``z0`` warm-starts the MMSIM rungs from a previous solution (see
    :func:`repro.lcp.mmsim.warm_start_from_z`); the non-MMSIM rungs
    ignore it.  ``primary_result`` substitutes an already-computed
    primary MMSIM result (the batched group engine's output, which is
    bit-identical to the per-shard solve) for rung 1 — a failed one
    walks the ladder exactly as if the per-shard solve had failed, and
    fault injection on ``"mmsim"`` still discards it.  Returns
    ``(result, escalation)``; *escalation* is None when the primary
    MMSIM succeeded (the overwhelmingly common case — the result is then
    bit-identical to a plain :func:`mmsim_solve`).
    """
    opts = options or MMSIMOptions()
    cfg = config or ResilienceConfig()
    n = splitting.n
    m = splitting.m
    accept_bound = (
        opts.residual_tol if opts.residual_tol is not None else opts.tol
    )

    escalation = ShardEscalation(
        shard_index=shard_index, num_variables=n, num_constraints=m
    )
    attempts = escalation.attempts

    # Rung 1: the primary MMSIM on the shard's own splitting.
    try:
        if cfg.should_fail(shard_index, "mmsim"):
            raise FaultInjected("injected: mmsim")
        result = (
            primary_result
            if primary_result is not None
            else mmsim_solve(lcp, splitting, opts, s0=s0, z0=z0)
        )
        if result.converged:
            return result, None
        attempts.append(
            RungAttempt(
                "mmsim",
                "failed",
                iterations=result.iterations,
                residual=result.residual,
                detail=result.message,
            )
        )
    except FaultInjected as exc:
        attempts.append(RungAttempt("mmsim", "injected", detail=str(exc)))
    except Exception as exc:  # noqa: BLE001 - any kernel failure escalates
        attempts.append(RungAttempt("mmsim", "raised", detail=repr(exc)))

    def try_rung(rung: str, runner, note: str = "") -> Optional[LCPResult]:
        """Run one fallback rung; audit, record, and return a win or None.

        The candidate wins when its assembled z clears ``accept_bound`` on
        this shard's own KKT LCP — the audit that makes the no-worse
        contract hold — whether or not the rung's own stopping test
        fired: a rung stopped at its sweep cap below the bound is as good
        an answer as one that converged, and is reported converged.
        ``note`` leads the attempt's ``detail`` whenever the rung ran.
        """
        try:
            if cfg.should_fail(shard_index, rung):
                raise FaultInjected(f"injected: {rung}")
            result = runner()
        except FaultInjected as exc:
            attempts.append(RungAttempt(rung, "injected", detail=str(exc)))
            return None
        except Exception as exc:  # noqa: BLE001 - any rung failure escalates
            attempts.append(RungAttempt(rung, "raised", detail=repr(exc)))
            return None
        residual = lcp.natural_residual(result.z)
        if residual <= accept_bound:
            status = "won"
        else:
            status = "rejected" if result.converged else "failed"
        attempts.append(
            RungAttempt(
                rung,
                status,
                iterations=result.iterations,
                residual=residual,
                detail="; ".join(filter(None, (note, result.message))),
            )
        )
        return replace(result, converged=True) if status == "won" else None

    # Rung 2: safe kernels + fixed conservative damping, tested after
    # every sweep whatever the primary's cadence.
    def run_safe() -> LCPResult:
        safe_opts = replace(
            opts,
            damping=SAFE_DAMPING,
            auto_damping=False,
            max_iterations=max(
                1, int(opts.max_iterations * cfg.safe_iteration_factor)
            ),
            block=1,
        )
        return mmsim_solve(
            lcp,
            LegalizationSplitting._superlu(splitting),
            safe_opts,
            s0=s0,
            z0=z0,
        )

    result = try_rung("mmsim_safe", run_safe)
    if result is not None:
        return _won(result, escalation), escalation

    # Rung 3: PSOR on the dual Schur-complement LCP.  A different
    # algorithm on a different (positive-diagonal) system; the recovered
    # primal is audited against the original KKT LCP.
    if m > PSOR_MAX_CONSTRAINTS:
        attempts.append(
            RungAttempt(
                "psor",
                "skipped",
                detail=f"m={m} > PSOR_MAX_CONSTRAINTS={PSOR_MAX_CONSTRAINTS}",
            )
        )
    else:
        sweeps = min(PSOR_MAX_ITERATIONS, PSOR_WORK_BUDGET // max(m, 1))
        result = try_rung(
            "psor",
            lambda: _psor_rung(lcp, splitting, n, sweeps),
            note=(
                f"sweep cap {sweeps} = min(PSOR_MAX_ITERATIONS="
                f"{PSOR_MAX_ITERATIONS}, {PSOR_WORK_BUDGET} // m={m})"
            ),
        )
        if result is not None:
            return _won(result, escalation), escalation

    # Rung 4: exact Lemke pivoting (small shards only: dense tableau).
    if n + m > LEMKE_MAX_VARIABLES:
        attempts.append(
            RungAttempt(
                "lemke",
                "skipped",
                detail=(
                    f"n+m={n + m} > LEMKE_MAX_VARIABLES={LEMKE_MAX_VARIABLES}"
                ),
            )
        )
    else:
        result = try_rung(
            "lemke",
            lambda: lemke_solve(
                lcp, LemkeOptions(max_pivots=LEMKE_MAX_PIVOTS)
            ),
        )
        if result is not None:
            return _won(result, escalation), escalation

    # Terminal rung: clamp to the pre-solve positions.  z = [x_gp; 0] is
    # the iteration's own starting point, so downstream stages see the
    # cells exactly where the solve found them — the Tetris allocation
    # then owns every remaining overlap.  Never fails.
    z = np.zeros(n + m)
    z[:n] = np.maximum(-lcp.q[:n], 0.0)
    residual = lcp.natural_residual(z)
    attempts.append(RungAttempt("clamp", "won", residual=residual))
    result = LCPResult(
        z=z,
        converged=False,
        iterations=0,
        residual=residual,
        solver="clamp",
        message="clamped to pre-solve positions (" + escalation.summary() + ")",
    )
    return result, escalation


def _won(result: LCPResult, escalation: ShardEscalation) -> LCPResult:
    """Stamp a fallback win's provenance onto the result message."""
    message = f"fallback '{escalation.winner}' solved the shard"
    if result.message:
        message += f" ({result.message})"
    return replace(result, message=message)


def _psor_rung(
    lcp: LCP,
    splitting: LegalizationSplitting,
    n: int,
    max_iterations: int,
) -> LCPResult:
    """PSOR on the dual LCP of the shard's QP, mapped back to KKT form.

    The shard's LCP is the KKT system of ``min ½yᵀHy + pᵀy  s.t.
    By >= b, y >= 0`` with ``q = [p; −b]``; eliminating the primal
    variables gives the SPD dual LCP in the multipliers r (see
    :mod:`repro.qp.dual`).  The dual drops the ``y >= 0`` bound, so the
    recovered primal is clamped and the caller audits the assembled
    ``z = [y; r]`` against the original KKT LCP before accepting it.
    """
    from repro.qp.dual import make_dual_lcp
    from repro.qp.problem import QPProblem

    p = np.asarray(lcp.q[:n], dtype=float)
    b = -np.asarray(lcp.q[n:], dtype=float)
    qp = QPProblem(H=splitting.H, p=p, B=splitting.B, b=b)
    dual_lcp, recover = make_dual_lcp(qp)
    dual = psor_solve(
        dual_lcp,
        PSOROptions(
            relax=PSOR_RELAX, tol=PSOR_TOL, max_iterations=max_iterations
        ),
    )
    y = np.maximum(recover(dual.z), 0.0)
    z = np.concatenate([y, dual.z])
    return LCPResult(
        z=z,
        converged=dual.converged,
        iterations=dual.iterations,
        residual=lcp.natural_residual(z),
        solver="psor",
        message=dual.message,
    )


def record_escalations(escalations: List[ShardEscalation]) -> None:
    """Emit telemetry for completed ladder walks (one event per shard)."""
    if not escalations:
        return
    tel = current_session()
    if not tel.enabled:
        return
    metrics = tel.metrics
    sink = tel.solver_events
    for esc in escalations:
        metrics.counter("resilience.escalated_shards").inc()
        metrics.counter(f"resilience.win.{esc.winner}").inc()
        for attempt in esc.attempts:
            metrics.counter(
                f"resilience.attempts.{attempt.rung}.{attempt.status}"
            ).inc()
        if sink is not None:
            sink.emit(
                "resilience",
                "escalation",
                shard=esc.shard_index,
                variables=esc.num_variables,
                constraints=esc.num_constraints,
                winner=esc.winner,
                solved=esc.solved,
                rungs=[f"{a.rung}:{a.status}" for a in esc.attempts],
            )
