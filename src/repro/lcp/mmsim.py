"""Modulus-based matrix splitting iteration method (MMSIM) for LCPs.

This is the paper's Algorithm 1 (originally Bai, 2010).  Let ``A = M − N``
be a splitting and ``Ω`` a positive diagonal matrix.  From any start vector
``s⁰``, iterate

    (M + Ω) s^{k+1} = N s^k + (Ω − A) |s^k| − γ q,            (Eq. 3)
    z^{k+1} = (|s^{k+1}| + s^{k+1}) / γ,                      (Eq. 4)

until ``‖z^k − z^{k-1}‖ < ε``.  At a fixed point, ``z = (|s|+s)/γ`` and
``w = Ω(|s|−s)/γ`` solve the LCP: non-negativity of both is automatic from
the modulus, and complementarity holds because ``(|s|+s)ᵀ(|s|−s) = 0``.

The solver is generic over a :class:`Splitting` strategy object so the same
iteration drives both the simple dense splittings used in unit tests and the
paper's block lower-triangular splitting of Eq. (16) (see
:mod:`repro.core.splitting`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from repro.kernels.reference import ReferenceSweepRunner
from repro.lcp.problem import LCP, LCPResult


class Splitting(Protocol):
    """Strategy interface for one MMSIM splitting ``A = M − N`` with Ω."""

    def apply_N(self, s: np.ndarray) -> np.ndarray:
        """Return ``N s``."""
        ...

    def apply_omega_minus_A(self, s_abs: np.ndarray) -> np.ndarray:
        """Return ``(Ω − A) |s|``."""
        ...

    def solve_M_plus_omega(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(M + Ω) s = rhs`` for s."""
        ...


# The paper's Eq. (16) splitting (repro.core.splitting) is swept by
# ReferenceSweepRunner's allocation-free sweep, which reads its matrices
# directly; the protocol's three methods drive every other splitting.


@dataclass
class MMSIMOptions:
    """Iteration controls for :func:`mmsim_solve`.

    ``gamma`` is the paper's γ (any positive constant; 2 is customary).
    ``tol`` is ε applied to ``‖z^k − z^{k-1}‖_inf``; ``residual_tol``
    additionally requires the LCP natural residual to be small, which avoids
    declaring convergence on a slowly-moving but wrong iterate.  ``tol=0``
    never converges, so a run does exactly ``max_iterations`` sweeps.

    ``damping`` relaxes the update to ``s ← ω·ŝ + (1−ω)·s`` (ω = 1 is the
    paper's plain iteration; the fixed points are identical for any
    ω ∈ (0, 1]).  With ``auto_damping`` (default), a stalled iteration —
    the z-step not shrinking over ``stall_window`` sweeps — multiplies ω
    by ``rescue_damping`` (0.7): the plain modulus iteration provably
    *can* enter a 2-cycle on valid mixed-height instances even inside the
    paper's parameter window, and damping reliably collapses the cycle
    onto the fixed point (see ``tests/test_mmsim_stall_rescue.py``).  If
    the iteration is *still* stalled a window later the rescue escalates
    (ω ← 0.7·ω, …) down to ``min_damping`` — some cycles survive ω = 0.7
    but collapse at 0.5 (found by fuzzing; see
    ``tests/test_mmsim_vs_lemke.py``).  A run that never stalls is
    bit-identical to the plain iteration.

    ``block`` is the most sweeps run per convergence test (the paper's
    Eq. (4) test on ‖zᵏ − zᵏ⁻¹‖).  With 1 (default) every sweep is
    tested: the plain per-sweep iteration.  A larger block ramps up to
    ``block`` sweeps between tests, so a run stops at the first tested
    iterate past convergence — a later iterate of the same contraction
    (``LegalizerConfig(kernel_backend="fused")`` sets 8).

    ``telemetry`` is an optional event sink (anything with an
    ``emit(solver, type, **fields)`` method, normally a
    :class:`repro.telemetry.EventSink`): when set, the solver emits one
    ``iteration`` event per convergence check (z-step norm, damping ω,
    residual when computed) — one per sweep at ``block = 1`` — a
    ``stall_rescue`` event if the rescue fires, and a final ``done``
    event.  When None (the default) the loop pays a single pointer
    comparison per step.
    """

    gamma: float = 2.0
    tol: float = 1e-8
    residual_tol: Optional[float] = 1e-6
    max_iterations: int = 20000
    damping: float = 1.0
    auto_damping: bool = True
    stall_window: int = 500
    rescue_damping: float = 0.7
    min_damping: float = 0.2
    block: int = 1
    telemetry: Optional[object] = None

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not self.tol >= 0.0:
            raise ValueError("tol must be >= 0")
        if self.residual_tol is not None and not self.residual_tol >= 0.0:
            raise ValueError("residual_tol must be None or >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if not 0.0 < self.rescue_damping < 1.0:
            raise ValueError("rescue_damping must be in (0, 1)")
        if not 0.0 < self.min_damping <= 1.0:
            raise ValueError("min_damping must be in (0, 1]")
        if self.block < 1:
            raise ValueError("block must be >= 1")


def warm_start_from_z(lcp: LCP, z0: np.ndarray, gamma: float) -> np.ndarray:
    """Modulus-space warm start s⁰ reproducing a previous solution z⁰.

    At a fixed point ``z = (|s|+s)/γ`` and ``w = (|s|−s)/γ`` (Ω = I), so
    ``s = γ(z − w)/2``.  Substituting ``w = max(Az⁰ + q, 0)`` (the
    complementary slack of the candidate) gives an s⁰ whose first iterate
    starts from z⁰ instead of from zero — when z⁰ is the solution of a
    nearby problem (a re-legalization, a λ-continuation step, a resilience
    re-solve) the iteration converges in a handful of sweeps.
    """
    w = np.maximum(lcp.w_of(z0), 0.0)
    s0 = z0 - w
    s0 *= 0.5 * gamma
    return s0


def mmsim_solve(
    lcp: LCP,
    splitting: Splitting,
    options: Optional[MMSIMOptions] = None,
    s0: Optional[np.ndarray] = None,
    z0: Optional[np.ndarray] = None,
) -> LCPResult:
    """Run the MMSIM on an LCP with the given splitting.

    ``s0`` seeds the modulus iteration directly; ``z0`` instead warm-starts
    from a previous *solution* via :func:`warm_start_from_z` (ignored when
    ``s0`` is given).  Returns an :class:`LCPResult` whose ``z`` satisfies
    the LCP to the requested tolerance when ``converged`` is True.

    Sweeps run through
    :class:`~repro.kernels.reference.ReferenceSweepRunner`.  Each
    Python-level step runs ``span`` sweeps: ``span − 1`` blind ones, a
    recomputation of ``z`` at the penultimate iterate, then one measured
    sweep, so the convergence test at every step boundary sees a *true*
    single-iteration z-step.  ``span`` ramps geometrically (1, 2, 4, ...
    up to ``options.block``), is clamped to the remaining budget, and —
    while the stall rescue is eligible — to the next ``stall_window``
    multiple, so rescue checkpoints sample the same iterates at any block
    length.  With ``block = 1`` every sweep is measured: that is the plain
    per-sweep iteration.  Larger blocks stop at a later iterate of the
    same contraction, hence the "tolerance" comparison class.
    """
    opts = options or MMSIMOptions()
    n = lcp.n
    gamma = opts.gamma
    if s0 is None and z0 is not None:
        z0 = np.asarray(z0, dtype=float)
        if z0.shape != (n,):
            raise ValueError(f"z0 has shape {z0.shape}, expected ({n},)")
        s0 = warm_start_from_z(lcp, z0, gamma)
    # The runner copies s into its own work vector; s0 is only read.
    s = np.zeros(n) if s0 is None else np.asarray(s0, dtype=float)
    if s.shape != (n,):
        raise ValueError(f"s0 has shape {s.shape}, expected ({n},)")

    runner = ReferenceSweepRunner(splitting)
    run = runner.run
    block = opts.block
    emit = opts.telemetry.emit if opts.telemetry is not None else None
    gq = gamma * lcp.q
    tol = opts.tol
    residual_tol = opts.residual_tol
    max_iterations = opts.max_iterations
    auto_damping = opts.auto_damping
    min_damping = opts.min_damping
    z_prev = (np.abs(s) + s) / gamma
    # z and z_prev swap between two buffers; z comes from the runner's
    # |s| of the iterate it returned.
    z_spare = np.empty_like(z_prev)
    converged = False
    omega = opts.damping
    rescued = False
    checkpoint_step = None
    next_rescue = opts.stall_window
    ramp = 1
    k = 0
    while k < max_iterations:
        # A one-sweep step always fits the budget and the rescue schedule.
        span = ramp
        if ramp > 1:
            span = min(ramp, max_iterations - k)
            if auto_damping and omega > min_damping:
                span = min(span, next_rescue - k)
            if span > 1:
                s = run(s, span - 1, gq, omega)
                np.add(runner.s_abs, s, out=z_prev)
                z_prev /= gamma
        if ramp < block:
            ramp = min(2 * ramp, block)
        s = run(s, 1, gq, omega)
        k += span
        # z = (|s| + s)/γ and the inf-norm z-step, in place: the retired
        # z_prev buffer absorbs the difference, so a step allocates
        # nothing.
        z = np.add(runner.s_abs, s, out=z_spare)
        z /= gamma
        if n:
            np.subtract(z, z_prev, out=z_prev)
            np.abs(z_prev, out=z_prev)
            step = float(z_prev.max())
        else:
            step = 0.0
        z_spare, z_prev = z_prev, z
        residual_k: Optional[float] = None
        if step < tol:
            if residual_tol is None:
                converged = True
            else:
                residual_k = lcp.natural_residual(z)
                converged = residual_k <= residual_tol
        if emit is not None:
            emit(
                "mmsim", "iteration",
                iteration=k, step=step, omega=omega, residual=residual_k,
            )
        if converged:
            break
        # Stall rescue: a step that stopped shrinking signals the plain
        # iteration 2-cycling; damping collapses the cycle (fixed points
        # are unchanged by ω).  Still stalled a window later, the rescue
        # escalates ω further, down to min_damping.
        if auto_damping and omega > min_damping and k >= next_rescue:
            if checkpoint_step is not None and step >= 0.9 * checkpoint_step:
                omega = max(omega * opts.rescue_damping, opts.min_damping)
                rescued = True
                if emit is not None:
                    emit("mmsim", "stall_rescue", iteration=k, omega=omega)
            checkpoint_step = step
            next_rescue = (k // opts.stall_window + 1) * opts.stall_window
    residual = lcp.natural_residual(z_prev)
    message = "" if converged else "max iterations reached"
    if rescued:
        message = (message + f"; stall rescued with damping {omega:g}").lstrip(
            "; "
        )
    if emit is not None:
        emit(
            "mmsim", "done",
            iterations=k, converged=converged, residual=residual,
            rescued=rescued,
        )
    return LCPResult(
        z=z_prev,
        converged=converged,
        iterations=k,
        residual=residual,
        solver="mmsim",
        message=message,
    )
