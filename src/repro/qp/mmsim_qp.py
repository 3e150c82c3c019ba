"""Generic QP solving via the paper's LCP + MMSIM pipeline.

The paper's concluding claim is that its formulation "provides new generic
solutions ... for various optimization problems that require solving
large-scale quadratic programs efficiently".  This module delivers that as
a reusable API: ``solve_qp_via_mmsim`` accepts *any* convex QP of the form

    min ½ xᵀ H x + pᵀ x    s.t.    B x >= b,  x >= 0

with sparse SPD ``H`` and full-row-rank ``B``, converts it to the KKT LCP
(Eq. 8/15), builds the block splitting of Eq. (16) — using a sparse LU of
``H`` when no low-rank ``(E, λ)`` structure is available for the Woodbury
shortcut — and runs the MMSIM.

This is the entry point a user would reach for to apply the paper's method
to the other applications it cites (global placement spreading, buffer/wire
sizing, dummy fill, ...).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.splitting import LegalizationSplitting, SplittingParameters
from repro.lcp.mmsim import MMSIMOptions, mmsim_solve
from repro.lcp.problem import split_kkt_solution
from repro.qp.problem import QPProblem
from repro.telemetry import current_session, current_tracer


class GeneralSplitting(LegalizationSplitting):
    """Eq. (16) splitting for an arbitrary sparse SPD Hessian.

    Identical block structure to :class:`LegalizationSplitting`, but H⁻¹
    columns needed for the tridiagonal Schur approximation come from a
    sparse LU factorization instead of the legalization-specific Woodbury
    identity.  Still never forms the full Schur complement: only the
    three diagonals of ``B H⁻¹ Bᵀ`` are assembled, via one solve per
    constraint-row support.
    """

    def __init__(
        self,
        H: sp.spmatrix,
        B: sp.spmatrix,
        params: Optional[SplittingParameters] = None,
    ) -> None:
        self.params = params or SplittingParameters()
        self.H = sp.csr_matrix(H)
        self.B = sp.csr_matrix(B)
        # No (E, λ) structure: the shared solver setup then keeps SuperLU
        # for the top block but still gets the banded bottom solve and the
        # runner's allocation-free sweep.
        self.E = None
        self.lam = None
        self.n = self.H.shape[0]
        self.m = self.B.shape[0]
        tracer = current_tracer()
        with tracer.span("splitting.factorize_H", nnz=int(self.H.nnz)):
            self._solve_H = spla.factorized(sp.csc_matrix(self.H))
        self.H_inv = None  # not formed explicitly
        with tracer.span("splitting.schur", m=self.m):
            self.D = self._schur_tridiagonal_via_solves()
        self._setup_solvers()

    def _schur_tridiagonal_via_solves(self) -> sp.csr_matrix:
        """tridiag(B H⁻¹ Bᵀ) using one H-solve per B row.

        ``(B H⁻¹ Bᵀ)[i, j] = B_i · H⁻¹ B_jᵀ``; solving ``H y_i = B_iᵀ``
        once per row i gives row i of the product, from which the three
        diagonals are read off.
        """
        m = self.m
        if m == 0:
            return sp.csr_matrix((0, 0))
        Bt = self.B.T.tocsc()
        diag_main = np.zeros(m)
        diag_up = np.zeros(max(m - 1, 0))
        diag_lo = np.zeros(max(m - 1, 0))
        y_prev: Optional[np.ndarray] = None
        rows = [self.B.getrow(i) for i in range(m)]
        for i in range(m):
            rhs = np.asarray(Bt[:, i].todense()).ravel()
            y = self._solve_H(rhs)
            diag_main[i] = float((rows[i] @ y)[0])
            if i > 0:
                diag_lo[i - 1] = float((rows[i] @ y_prev)[0])
                diag_up[i - 1] = float((rows[i - 1] @ y)[0])
            y_prev = y
        if m == 1:
            return sp.csr_matrix(np.array([[diag_main[0]]]))
        return sp.diags(
            [diag_lo, diag_main, diag_up], offsets=[-1, 0, 1], format="csr"
        )

    # estimate_mu_max in the base class uses self.H_inv; override with the
    # factorized solve.
    def estimate_mu_max(self, iterations: int = 80, seed: int = 7) -> float:
        if self.m == 0:
            return 0.0
        solve_D = spla.factorized(sp.csc_matrix(self.D))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.m)
        v /= np.linalg.norm(v)
        mu = 0.0
        for _ in range(iterations):
            w = solve_D(self.B @ self._solve_H(self.B.T @ v))
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            mu = norm
            v = w / norm
        return float(mu)


@dataclass
class MMSIMQPResult:
    """Solution of a QP via the MMSIM pipeline."""

    x: np.ndarray
    multipliers: np.ndarray
    objective: float
    converged: bool
    iterations: int
    lcp_residual: float
    kkt_residual: float


def solve_qp_via_mmsim(
    qp: QPProblem,
    E: Optional[sp.spmatrix] = None,
    lam: Optional[float] = None,
    params: Optional[SplittingParameters] = None,
    options: Optional[MMSIMOptions] = None,
    x0: Optional[np.ndarray] = None,
) -> MMSIMQPResult:
    """Solve ``min ½xᵀHx + pᵀx s.t. Bx >= b, x >= 0`` by KKT-LCP + MMSIM.

    Pass ``(E, lam)`` when ``H = I + λEᵀE`` (the legalization structure) to
    use the exact Woodbury inverse; otherwise a sparse LU of H drives the
    Schur-complement approximation.

    ``x0`` warm-starts the modulus iteration at a primal guess.
    """
    opts = options or MMSIMOptions(tol=1e-8, residual_tol=1e-6)
    tel = current_session()
    if opts.telemetry is None and tel.enabled:
        # Thread the ambient event sink through without mutating the
        # caller's options object.
        opts = dataclasses.replace(opts, telemetry=tel.solver_events)
    tracer = tel.tracer
    with tracer.span(
        "qp.solve_via_mmsim", n=qp.num_variables, m=qp.num_constraints
    ) as span:
        tel.metrics.gauge("qp.variables").set(qp.num_variables)
        tel.metrics.gauge("qp.constraints").set(qp.num_constraints)
        if E is not None and lam is not None:
            splitting = LegalizationSplitting(qp.H, qp.B, E, lam, params)
        else:
            splitting = GeneralSplitting(qp.H, qp.B, params)
        lcp = qp.kkt_lcp()
        s0 = None
        if x0 is not None:
            x0 = np.maximum(np.asarray(x0, dtype=float).ravel(), 0.0)
            s0 = np.zeros(qp.num_variables + qp.num_constraints)
            s0[: qp.num_variables] = 0.5 * opts.gamma * x0
        result = mmsim_solve(lcp, splitting, opts, s0=s0)
        x, r = split_kkt_solution(result.z, qp.num_variables)
        span.set_attributes(
            iterations=result.iterations, converged=result.converged
        )
    return MMSIMQPResult(
        x=x,
        multipliers=r,
        objective=qp.objective(x),
        converged=result.converged,
        iterations=result.iterations,
        lcp_residual=result.residual,
        kkt_residual=qp.kkt_residual(x, r),
    )
