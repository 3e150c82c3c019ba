"""Dual (Schur-complement) LCP of the legalization QP.

Eliminating the primal variables from the KKT system of

    min ½xᵀHx + pᵀx   s.t.   Bx >= b

(*without* the ``x >= 0`` bound) gives ``x(r) = H⁻¹(Bᵀr − p)`` and the
*dual LCP* in the multipliers r:

    v = Ã r + q̃ >= 0,  r >= 0,  rᵀ v = 0,
    Ã = B H⁻¹ Bᵀ,      q̃ = −B H⁻¹ p − b.

Ã is symmetric positive definite whenever H is SPD and B has full row rank,
so classical positive-diagonal LCP solvers (PSOR, projected fixed point)
apply — which is how the ablation benchmarks compare them against the
paper's MMSIM.  The dropped ``x >= 0`` bound is immaterial for legalization
inputs whose GP positions sit inside the core, and every use of this module
verifies the recovered x for non-negativity.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.lcp.problem import LCP
from repro.qp.problem import QPProblem


def make_dual_lcp(qp: QPProblem) -> Tuple[LCP, Callable[[np.ndarray], np.ndarray]]:
    """Build the dual LCP and a recovery map from multipliers to primal x.

    Returns ``(lcp, recover)`` where ``recover(r) = H⁻¹(Bᵀr − p)``.
    Without constraints (m = 0) the dual LCP is empty and ``recover``
    gives the unconstrained minimizer ``H⁻¹(−p)``.

    Note: Ã is formed explicitly, which densifies for large m; intended for
    tests and ablations on small/medium instances, not the production path.
    """
    H = sp.csc_matrix(qp.H)
    B = sp.csr_matrix(qp.B)
    solve_H = spla.factorized(H)

    # H⁻¹ Bᵀ column by column (m columns).  Fine for ablation sizes.
    Bt = B.T.toarray()
    HinvBt = np.empty(Bt.shape)
    for j in range(Bt.shape[1]):
        HinvBt[:, j] = solve_H(Bt[:, j])
    A_dual = B @ HinvBt
    A_dual = np.asarray(A_dual)
    Hinv_p = solve_H(qp.p)
    q_dual = -(B @ Hinv_p) - qp.b

    lcp = LCP(A=sp.csr_matrix(A_dual), q=np.asarray(q_dual))

    def recover(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float).ravel()
        return solve_H(B.T @ r - qp.p)

    return lcp, recover
