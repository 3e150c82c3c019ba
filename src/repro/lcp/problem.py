"""Linear complementarity problem (LCP) container and residuals.

Given a matrix ``A`` (n x n, typically sparse) and a vector ``q``, the
LCP(q, A) of the paper's Section 2.2 asks for vectors ``w, z`` with

    w = A z + q >= 0,    z >= 0,    zᵀ w = 0.

This module holds the problem data and provides the standard merit
quantities used as stopping criteria and as test oracles:

* the *natural residual* ``‖ min(z, Az + q) ‖`` — zero exactly at solutions;
* the feasibility violations ``‖ min(z, 0) ‖`` and ``‖ min(w, 0) ‖``;
* the complementarity gap ``zᵀ w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

Matrix = Union[np.ndarray, sp.spmatrix]


@dataclass
class LCP:
    """An LCP(q, A) instance."""

    A: Matrix
    q: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float).ravel()
        n = self.q.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A has shape {self.A.shape}, expected ({n}, {n})")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def w_of(self, z: np.ndarray) -> np.ndarray:
        """w = A z + q."""
        return self.A @ z + self.q

    # ------------------------------------------------------------------
    # Merit functions
    # ------------------------------------------------------------------
    def natural_residual(self, z: np.ndarray) -> float:
        """‖min(z, Az + q)‖_inf; zero iff z solves the LCP."""
        w = self.w_of(z)
        return float(np.max(np.abs(np.minimum(z, w)))) if self.n else 0.0

    def complementarity_gap(self, z: np.ndarray) -> float:
        """zᵀw (can be slightly negative for infeasible iterates)."""
        return float(z @ self.w_of(z))

    def infeasibility(self, z: np.ndarray) -> float:
        """Largest violation of z >= 0 or w >= 0."""
        w = self.w_of(z)
        viol_z = float(np.max(-np.minimum(z, 0.0))) if self.n else 0.0
        viol_w = float(np.max(-np.minimum(w, 0.0))) if self.n else 0.0
        return max(viol_z, viol_w)

    def is_solution(self, z: np.ndarray, tol: float = 1e-6) -> bool:
        """All three LCP conditions within *tol* (residual-based)."""
        return self.natural_residual(z) <= tol


@dataclass
class LCPResult:
    """Outcome of an iterative LCP solve."""

    z: np.ndarray
    converged: bool
    iterations: int
    residual: float
    solver: str = ""
    message: str = ""

    def __str__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"LCPResult({self.solver}: {status} in {self.iterations} iters, "
            f"residual={self.residual:.3e})"
        )


def make_kkt_lcp(
    H: Matrix, p: np.ndarray, B: Matrix, b: np.ndarray
) -> LCP:
    """Build the paper's KKT LCP (Eq. 8 / Eq. 15).

    For the QP ``min ½xᵀHx + pᵀx s.t. Bx >= b, x >= 0`` the KKT system is
    the LCP with

        A = [[H, -Bᵀ], [B, 0]],   q = [p; -b],   z = [x; r].

    H must be symmetric positive definite and B of full row rank for the
    MMSIM convergence guarantee (Propositions 1-2 of the paper).
    """
    p = np.asarray(p, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n = p.shape[0]
    m = b.shape[0]
    if H.shape != (n, n):
        raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
    if B.shape != (m, n):
        raise ValueError(f"B has shape {B.shape}, expected ({m}, {n})")
    H_s = sp.csr_matrix(H)
    B_s = sp.csr_matrix(B)
    A = sp.bmat(
        [[H_s, -B_s.T], [B_s, None]], format="csr"
    )
    # sp.bmat leaves the zero block implicit; force the full shape.
    if A.shape != (n + m, n + m):
        A = sp.bmat(
            [[H_s, -B_s.T], [B_s, sp.csr_matrix((m, m))]], format="csr"
        )
    q = np.concatenate([p, -b])
    return LCP(A=A, q=q)


def kkt_block(lcp: LCP, n: int, rows: slice, cons: slice) -> LCP:
    """One diagonal block of a block-diagonal KKT LCP.

    *lcp* is :func:`make_kkt_lcp` over ``n`` primal variables whose H and
    B are block diagonal; *rows* and *cons* are one block's variables and
    constraints.  The block's A takes the stored rows of its top and
    bottom parts in order, with columns rebased into the block's own
    ``[x; r]`` layout.  That mapping keeps each row's entry order, so the
    result equals :func:`make_kkt_lcp` over the block's own H, p, B and b
    bit for bit.
    """
    A = lcp.A
    nv = rows.stop - rows.start
    size = nv + cons.stop - cons.start
    ptr = A.indptr
    parts = ((rows.start, rows.stop), (n + cons.start, n + cons.stop))
    spans = [(int(ptr[a]), int(ptr[b])) for a, b in parts]
    cols = np.concatenate([A.indices[lo:hi] for lo, hi in spans])
    cols = np.where(
        cols < n, cols - rows.start, cols - (n + cons.start - nv)
    )
    top_nnz = spans[0][1] - spans[0][0]
    indptr = np.concatenate([
        ptr[rows.start:rows.stop + 1] - spans[0][0],
        ptr[n + cons.start + 1:n + cons.stop + 1] - spans[1][0] + top_nnz,
    ])
    block = sp.csr_matrix(
        (np.concatenate([A.data[lo:hi] for lo, hi in spans]), cols, indptr),
        shape=(size, size),
    )
    q = np.concatenate([lcp.q[rows], lcp.q[n + cons.start:n + cons.stop]])
    return LCP(A=block, q=q)


def split_kkt_solution(z: np.ndarray, n_primal: int) -> tuple:
    """Split a KKT-LCP solution vector into (x, r)."""
    return z[:n_primal].copy(), z[n_primal:].copy()
