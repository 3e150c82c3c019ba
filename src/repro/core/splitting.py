"""The paper's MMSIM splitting for the legalization KKT matrix (Eq. 16).

The KKT LCP matrix ``A = [[H, −Bᵀ], [B, 0]]`` has a zero bottom-right block,
so no diagonal-based splitting applies.  The paper instead splits

    M = [[H/β*, 0], [B, D/θ*]],     N = [[(1/β*−1)H, Bᵀ], [0, D/θ*]],

where ``D = tridiag(B H⁻¹ Bᵀ)`` approximates the Schur complement.  Since
``M + Ω`` (Ω = I) is *block lower triangular*, every MMSIM sweep costs one
solve with ``H/β* + I`` and one tridiagonal solve with ``D/θ* + I`` — the
sparsity exploitation the paper credits for its speed.

``H⁻¹`` is never formed by factorization: with ``H = I + λEᵀE`` the
Sherman–Morrison–Woodbury identity gives

    H⁻¹ = I − λ Eᵀ (I_k + λ E Eᵀ)⁻¹ E,

and ``I_k + λEEᵀ`` is block diagonal (one small block per multi-row cell),
inverted exactly blockwise.  For designs whose multi-row cells are all
double height each block is 1×1 and the formula collapses to the paper's
closed form ``H⁻¹ = I − λ/(2λ+1) EᵀE``.

The per-sweep kernels exploit the same structure instead of general
SuperLU factorizations:

* the *top* block ``H/β* + I = ((1+β*)/β*)·(I + λ/(1+β*)·EᵀE)`` is again
  diagonal-plus-blockwise-low-rank, so its inverse comes from the same
  Woodbury identity and one solve is a single sparse matvec;
* the *bottom* block ``D/θ* + I`` is symmetric tridiagonal, prefactorized
  once with LAPACK ``pttrf`` (Cholesky-like, falling back to ``gttrf``
  then SuperLU if the matrix is not SPD) and solved with ``pttrs``;
* :meth:`LegalizationSplitting.solve_into` solves both blocks into a
  caller's vector, the bottom kernel in place, so the sweep of
  :class:`repro.kernels.ReferenceSweepRunner` allocates nothing; the
  runner builds ``N s + (Ω−A)|s| − γq`` from :attr:`H`, :attr:`BT` and
  the prescaled ``D/θ*`` and ``−B`` kept here.  A splitting holds no
  per-solve scratch.

Every fast kernel is verified against the assembled block on a probe
vector at setup and silently falls back to ``spla.factorized`` when the
caller's ``H`` does not have the assumed ``I + λEᵀE`` structure.

Convergence (paper's Theorem 2, via Bai–Parlett–Wang): 0 < β* < 2 and
0 < θ* < 2(2−β*) / (β* μ_max) with μ_max the top eigenvalue of
Γ = D⁻¹ B H⁻¹ Bᵀ.  Both the bound check and a power-iteration μ_max
estimate are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from repro.kernels import csr_matvec_into, probe_vector
from repro.telemetry import current_tracer

#: Relative probe-vector tolerance for accepting a specialized kernel.
_KERNEL_VERIFY_TOL = 1e-9


def woodbury_h_inverse(E: sp.spmatrix, lam: float) -> sp.csr_matrix:
    """Explicit sparse ``H⁻¹ = (I + λEᵀE)⁻¹`` via blockwise Woodbury.

    ``I_k + λEEᵀ`` decomposes into connected blocks (one per multi-row
    cell); each block is inverted densely (blocks are (d−1)×(d−1) for a
    d-row cell, i.e. tiny), giving an exactly sparse H⁻¹.
    """
    k, n = E.shape
    identity = sp.identity(n, format="csr")
    if k == 0:
        return identity
    E = sp.csr_matrix(E)
    C = (sp.identity(k, format="csr") + lam * (E @ E.T)).tocsr()
    G = _blockwise_inverse(C)
    return (identity - lam * (E.T @ G @ E)).tocsr()


def _blockwise_inverse(C: sp.csr_matrix) -> sp.csr_matrix:
    """Exact inverse of a block-diagonal sparse matrix (blocks found by
    connected components of its sparsity graph).

    Blocks are gathered into dense ``(num_blocks, s, s)`` batches per
    block size ``s`` and inverted with one batched ``np.linalg.inv`` call
    each — no Python loop over block entries.
    """
    k = C.shape[0]
    num_comp, labels = connected_components(C, directed=False)
    sizes = np.bincount(labels, minlength=num_comp)
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    # Position of every index within its block: order lists block members
    # contiguously, so subtracting each segment's start yields 0..s-1.
    pos = np.empty(k, dtype=np.intp)
    pos[order] = np.arange(k) - np.repeat(starts[:-1], sizes)

    coo = C.tocoo()
    entry_block = labels[coo.row]
    out_rows = []
    out_cols = []
    out_data = []
    for s in np.unique(sizes):
        blocks = np.where(sizes == s)[0]
        slot = np.full(num_comp, -1, dtype=np.intp)
        slot[blocks] = np.arange(len(blocks))
        mask = sizes[entry_block] == s
        dense = np.zeros((len(blocks), s, s))
        dense[
            slot[entry_block[mask]], pos[coo.row[mask]], pos[coo.col[mask]]
        ] = coo.data[mask]
        inv = np.linalg.inv(dense)
        idx = order[starts[blocks][:, None] + np.arange(s)[None, :]]
        out_rows.append(np.repeat(idx, s, axis=1).ravel())
        out_cols.append(np.tile(idx, (1, s)).ravel())
        out_data.append(inv.reshape(len(blocks), s * s).ravel())
    data = np.concatenate(out_data)
    nz = data != 0.0
    return sp.csr_matrix(
        (data[nz], (np.concatenate(out_rows)[nz], np.concatenate(out_cols)[nz])),
        shape=(k, k),
    )


def _csr_rows(
    M: sp.csr_matrix, rows: slice, col0: int, ncols: int
) -> sp.csr_matrix:
    """Rows *rows* of *M* as a matrix of *ncols* columns starting at
    *col0*: each row keeps its stored values and entry order, and the
    data is a view of *M*'s."""
    lo, hi = int(M.indptr[rows.start]), int(M.indptr[rows.stop])
    return sp.csr_matrix(
        (
            M.data[lo:hi],
            M.indices[lo:hi] - col0,
            M.indptr[rows.start:rows.stop + 1] - lo,
        ),
        shape=(rows.stop - rows.start, ncols),
    )


def schur_tridiagonal(
    B: sp.spmatrix, H_inv: sp.spmatrix
) -> sp.csr_matrix:
    """``D = tridiag(B H⁻¹ Bᵀ)``: the paper's Schur-complement approximation."""
    B = sp.csr_matrix(B)
    m = B.shape[0]
    if m == 0:
        return sp.csr_matrix((0, 0))
    S = (B @ H_inv @ B.T).tocsr()
    diag_main = S.diagonal()
    if m == 1:
        return sp.csr_matrix(np.array([[diag_main[0]]]))
    diag_lower = S.diagonal(-1)
    diag_upper = S.diagonal(1)
    return sp.diags(
        [diag_lower, diag_main, diag_upper], offsets=[-1, 0, 1], format="csr"
    )


def _scalar_solver(pivot: float) -> Callable:
    """The 1×1 bottom solve, in place."""
    return lambda r: np.divide(r, pivot, out=r)


def _pttrs_solver(df: np.ndarray, ef: np.ndarray) -> Callable:
    """The ``pttrs`` bottom solve on ``pttrf`` factors, in place."""
    return lambda r: lapack.dpttrs(df, ef, r, overwrite_b=1)[0]


@dataclass
class SplittingParameters:
    """β*, θ* of Eq. (16); the paper uses 0.5 for both in all experiments."""

    beta: float = 0.5
    theta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 2.0:
            raise ValueError("β* must be in (0, 2) for MMSIM convergence")
        if self.theta <= 0.0:
            raise ValueError("θ* must be positive")


class LegalizationSplitting:
    """Splitting strategy (the :class:`repro.lcp.mmsim.Splitting` protocol)
    for the KKT LCP of a legalization QP.

    Parameters
    ----------
    H, B:
        Blocks of the KKT matrix (H = I + λEᵀE sparse SPD, B sparse with
        two nonzeros per row).
    E, lam:
        Equality structure and penalty, used for the Woodbury H⁻¹.
    params:
        β*, θ* constants.
    """

    def __init__(
        self,
        H: sp.spmatrix,
        B: sp.spmatrix,
        E: sp.spmatrix,
        lam: float,
        params: Optional[SplittingParameters] = None,
    ) -> None:
        self.params = params or SplittingParameters()
        self.H = sp.csr_matrix(H)
        self.B = sp.csr_matrix(B)
        self.E = sp.csr_matrix(E)
        self.lam = float(lam)
        self.n = self.H.shape[0]
        self.m = self.B.shape[0]
        tracer = current_tracer()
        with tracer.span("splitting.woodbury", n=self.n):
            self.H_inv = woodbury_h_inverse(E, lam)
        with tracer.span("splitting.schur", m=self.m):
            self.D = schur_tridiagonal(self.B, self.H_inv)
        self._setup_solvers()

    @classmethod
    def _superlu(
        cls, splitting: "LegalizationSplitting"
    ) -> "LegalizationSplitting":
        """*splitting*'s blocks with SuperLU factorizations of ``H/β* + I``
        and ``D/θ* + I``.

        Only the solver fallback ladder (:mod:`repro.core.resilience`)
        builds one, for its safe-kernel MMSIM rung: a retry on general
        factorizations rules the Woodbury/LAPACK kernels out as the cause
        of the primary solve's failure.
        """
        safe = cls.__new__(cls)
        for name in ("params", "H", "B", "E", "lam", "n", "m", "H_inv", "D"):
            setattr(safe, name, getattr(splitting, name))
        safe._H_inv_top = None
        safe.top_kernel = "superlu"
        safe._solve_top = spla.factorized(safe._top_block())
        safe.bottom_kernel = "superlu" if safe.m else "none"
        safe._solve_bottom = (
            spla.factorized(safe._bottom_block().tocsc()) if safe.m else None
        )
        safe._prescale()
        return safe

    def block(
        self, rows: slice, cons: slice, ties: slice
    ) -> "LegalizationSplitting":
        """The splitting of one diagonal block of this stacked splitting.

        *rows*, *cons* and *ties* are the block's ranges of variables, B
        rows and E rows.  This splitting must be block diagonal over such
        blocks (each B or E row touches only its own block's columns, as
        :meth:`~repro.core.sharding.ShardSource.stack` builds it) and
        carry a ``woodbury`` top kernel and a ``pttrs``, ``scalar`` or
        ``none`` bottom one.  The block then equals a splitting built
        from its own H, B and E, bit for bit: every matrix is a row range
        of this one's with rebased columns, which keeps each stored value
        and each row's entry order, and ``pttrf``'s recurrence restarts
        exactly at the zero coupling between blocks, so the block's
        factors are a slice of the stacked ones.
        """
        view = self.__class__.__new__(self.__class__)
        n = rows.stop - rows.start
        m = cons.stop - cons.start
        v0, c0 = rows.start, cons.start
        view.params, view.lam, view.n, view.m = self.params, self.lam, n, m
        view.H = _csr_rows(self.H, rows, v0, n)
        view.B = _csr_rows(self.B, cons, v0, n)
        view.E = _csr_rows(self.E, ties, v0, n)
        view.H_inv = _csr_rows(self.H_inv, rows, v0, n)
        view.D = _csr_rows(self.D, cons, c0, m)
        view.BT = _csr_rows(self.BT, rows, c0, m)
        view._D_theta = _csr_rows(self._D_theta, cons, c0, m)
        view._B_neg = _csr_rows(self._B_neg, cons, v0, n)
        inv_top = _csr_rows(self._H_inv_top, rows, v0, n)
        view._H_inv_top = inv_top
        view.top_kernel = "woodbury"
        view._solve_top = lambda r, _M=inv_top: _M @ r
        view._pttrf_factors = None
        view._bottom_pivot = None
        view.bottom_kernel = "none"
        view._solve_bottom = None
        if m == 1:
            # A row after a zero coupling leaves pttrf untouched, so its
            # factor is the pivot the block's own scalar kernel divides by.
            pivot = (
                self._bottom_pivot
                if self.bottom_kernel == "scalar"
                else float(self._pttrf_factors[0][c0])
            )
            view.bottom_kernel = "scalar"
            view._bottom_pivot = pivot
            view._solve_bottom = _scalar_solver(pivot)
        elif m:
            df, ef = self._pttrf_factors
            df, ef = df[cons], ef[c0:cons.stop - 1]
            view.bottom_kernel = "pttrs"
            view._pttrf_factors = (df, ef)
            view._solve_bottom = _pttrs_solver(df, ef)
        return view

    # ------------------------------------------------------------------
    # Solver setup (shared with GeneralSplitting)
    # ------------------------------------------------------------------
    def _setup_solvers(self) -> None:
        """Prefactorize the block solves and prescale the sweep matrices.

        Expects ``self.H``, ``self.B``, ``self.D``, ``self.params`` (and,
        for the Woodbury top-block shortcut, ``self.E``/``self.lam``) to
        be set.
        """
        #: Which kernel won each block solve — "woodbury"/"superlu" for
        #: the top, "scalar"/"pttrs"/"gttrs"/"superlu"/"none" for the
        #: bottom.  The batched micro-shard engine
        #: (:mod:`repro.core.batched`) requires the specialized kernels
        #: and reads these to decide group eligibility.
        self.top_kernel = "superlu"
        self.bottom_kernel = "none"
        tracer = current_tracer()
        with tracer.span("splitting.factorize", nnz=int(self.H.nnz)):
            self._solve_top = self._build_top_solver()
            self._solve_bottom = (
                self._build_bottom_solver() if self.m else None
            )
        self._prescale()

    def _prescale(self) -> None:
        """``Bᵀ``, ``D/θ*`` and ``−B``, the matrices a sweep multiplies
        by besides H (:func:`repro.kernels.reference.rhs_operator`)."""
        self.BT = self.B.T.tocsr()
        self._D_theta = (self.D / self.params.theta).tocsr()
        self._B_neg = (-self.B).tocsr()

    def _top_block(self) -> sp.csc_matrix:
        return (self.H / self.params.beta + sp.identity(self.n)).tocsc()

    def _bottom_block(self) -> sp.csr_matrix:
        return (self.D / self.params.theta + sp.identity(self.m)).tocsr()

    def _build_top_solver(self) -> Callable:
        """Solver for ``H/β* + I``.

        With ``H = I + λEᵀE``,

            H/β* + I = ((1+β*)/β*) · (I + λ/(1+β*) · EᵀE),

        the same diagonal-plus-blockwise structure as H itself, so its
        exact inverse comes from :func:`woodbury_h_inverse` and one solve
        is a single sparse matvec.  Verified on a probe vector; any
        mismatch (caller passed a different H) falls back to SuperLU, as
        does a splitting without ``(E, λ)`` (GeneralSplitting).
        """
        beta = self.params.beta
        E = self.E
        self._H_inv_top: Optional[sp.csr_matrix] = None
        self.top_kernel = "superlu"
        if E is None:
            return spla.factorized(self._top_block())
        alpha = (1.0 + beta) / beta
        inv_top = (
            woodbury_h_inverse(E, self.lam / (1.0 + beta)) / alpha
        ).tocsr()
        # Pure-chain shards (E empty) have H = I exactly; the Woodbury
        # inverse is the identity and needs no probe verification, so the
        # common micro-shard case skips assembling H/β* + I entirely.
        if E.nnz == 0 and self.H.nnz == self.n and np.array_equal(
            self.H.diagonal(), np.ones(self.n)
        ):
            self._H_inv_top = inv_top
            self.top_kernel = "woodbury"
            return lambda r, _M=inv_top: _M @ r
        top = self._top_block()
        probe = self._probe_vector(self.n)
        err = np.max(np.abs(top @ (inv_top @ probe) - probe))
        if err <= _KERNEL_VERIFY_TOL * max(1.0, float(np.max(np.abs(probe)))):
            self._H_inv_top = inv_top
            self.top_kernel = "woodbury"
            return lambda r, _M=inv_top: _M @ r
        return spla.factorized(top)

    def _build_bottom_solver(self) -> Callable:
        """Prefactorized solver for the tridiagonal ``D/θ* + I``.

        LAPACK ``pttrf``/``pttrs`` (symmetric positive definite
        tridiagonal) when it applies — D is the tridiagonal part of the
        SPD Schur complement, so it virtually always does — else
        ``gttrf``/``gttrs`` (general tridiagonal), else SuperLU.  The
        solver returns the solution; every kernel but SuperLU writes it
        over its argument.
        """
        bottom = self._bottom_block()
        self._pttrf_factors = None
        self._bottom_pivot = None
        d = bottom.diagonal()
        if self.m == 1:
            pivot = float(d[0])
            if pivot != 0.0:
                self.bottom_kernel = "scalar"
                self._bottom_pivot = pivot
                return _scalar_solver(pivot)
        else:
            dl = bottom.diagonal(-1)
            du = bottom.diagonal(1)
            probe = self._probe_vector(self.m)
            scale = max(1.0, float(np.max(np.abs(probe))))
            if np.allclose(dl, du, rtol=1e-12, atol=1e-14):
                df, ef, info = lapack.dpttrf(d, dl)
                if info == 0:
                    x, _ = lapack.dpttrs(df, ef, probe)
                    if (
                        np.max(np.abs(bottom @ x - probe))
                        <= _KERNEL_VERIFY_TOL * scale
                    ):
                        self.bottom_kernel = "pttrs"
                        # Raw factors, which block() slices per shard.
                        self._pttrf_factors = (df, ef)
                        return _pttrs_solver(df, ef)
            dlf, df, duf, du2, ipiv, info = lapack.dgttrf(dl, d, du)
            if info == 0:
                x, _ = lapack.dgttrs(dlf, df, duf, du2, ipiv, probe)
                if (
                    np.max(np.abs(bottom @ x - probe))
                    <= _KERNEL_VERIFY_TOL * scale
                ):
                    self.bottom_kernel = "gttrs"
                    return (
                        lambda r, _a=dlf, _b=df, _c=duf, _d2=du2, _p=ipiv:
                        lapack.dgttrs(_a, _b, _c, _d2, _p, r, overwrite_b=1)[0]
                    )
        self.bottom_kernel = "superlu"
        return spla.factorized(bottom.tocsc())

    @staticmethod
    def _probe_vector(size: int) -> np.ndarray:
        # One bounded probe store (repro.kernels.reference.probe_vector).
        return probe_vector(size)

    # ------------------------------------------------------------------
    # Splitting protocol
    # ------------------------------------------------------------------
    def apply_N(self, s: np.ndarray) -> np.ndarray:
        # The protocol's separate products: the reference the runner's
        # rhs is tested against (the solver drives use the runner's).
        s1, s2 = s[: self.n], s[self.n :]
        beta, theta = self.params.beta, self.params.theta
        top = (1.0 / beta - 1.0) * (self.H @ s1)
        if self.m:
            top = top + self.B.T @ s2
            bottom = (self.D @ s2) / theta
            return np.concatenate([top, bottom])
        return top

    def apply_omega_minus_A(self, s_abs: np.ndarray) -> np.ndarray:
        t1, t2 = s_abs[: self.n], s_abs[self.n :]
        top = t1 - self.H @ t1
        if self.m:
            top = top + self.B.T @ t2
            bottom = -(self.B @ t1) + t2
            return np.concatenate([top, bottom])
        return top

    def solve_M_plus_omega(self, rhs: np.ndarray) -> np.ndarray:
        return self.solve_into(rhs, np.empty(self.n + self.m))

    def solve_into(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve ``(M + Ω) out = rhs`` into *out* and return it.

        The top block's solution goes straight into ``out[:n]``; the
        bottom right-hand side ``rhs₂ − B·out₁`` is accumulated in
        ``out[n:]`` and solved there in place.  *rhs* is only read.
        """
        n = self.n
        s1 = out[:n]
        if self._H_inv_top is not None:
            s1.fill(0.0)
            csr_matvec_into(self._H_inv_top, rhs[:n], s1)
        else:
            s1[:] = self._solve_top(rhs[:n])
        if self.m:
            s2 = out[n:]
            np.copyto(s2, rhs[n:])
            csr_matvec_into(self._B_neg, s1, s2)
            x = self._solve_bottom(s2)
            if x is not s2:
                s2[:] = x
        return out

    # ------------------------------------------------------------------
    # Theorem 2 convergence window
    # ------------------------------------------------------------------
    def estimate_mu_max(self, iterations: int = 80, seed: int = 7) -> float:
        """Power-iteration estimate of μ_max(Γ), Γ = D⁻¹ B H⁻¹ Bᵀ."""
        if self.m == 0:
            return 0.0
        solve_D = spla.factorized(sp.csc_matrix(self.D))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.m)
        v /= np.linalg.norm(v)
        mu = 0.0
        for _ in range(iterations):
            w = solve_D(self.B @ (self.H_inv @ (self.BT @ v)))
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            mu = norm
            v = w / norm
        return float(mu)

    def theta_upper_bound(self, mu_max: Optional[float] = None) -> float:
        """Theorem 2's bound ``2(2−β*) / (β* μ_max)`` for the current β*."""
        if mu_max is None:
            mu_max = self.estimate_mu_max()
        if mu_max <= 0.0:
            return float("inf")
        beta = self.params.beta
        return 2.0 * (2.0 - beta) / (beta * mu_max)

    def parameters_satisfy_theorem2(self, mu_max: Optional[float] = None) -> bool:
        """Whether (β*, θ*) sit inside the proven convergence window."""
        return 0.0 < self.params.theta < self.theta_upper_bound(mu_max)
