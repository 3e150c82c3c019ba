"""The MMSIM sweep and the primitives it builds on.

* :func:`csr_matvec_into` — the direct ``scipy.sparse._sparsetools``
  matvec (``y += M @ x``) that every sweep builds on;
* :func:`probe_vector` — the capped cache of deterministic probe vectors
  that ``LegalizationSplitting`` verifies its block solvers with;
* :func:`rhs_operator` — the stacked operator K that gives a sweep its
  right-hand side in one matvec;
* :class:`ReferenceSweepRunner` — the modulus sweep, Eq. (3), over any
  :class:`repro.lcp.mmsim.Splitting`.  Both solver drives
  (:func:`repro.lcp.mmsim.mmsim_solve` and the batched engine in
  :mod:`repro.core.batched`) run it; how many sweeps they run between
  convergence tests is ``MMSIMOptions.block``, not a property of the
  runner.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - exercised indirectly by every fast solve
    from scipy.sparse import _sparsetools as _spt

    def csr_matvec_into(M: sp.csr_matrix, x: np.ndarray, y: np.ndarray):
        """``y += M @ x`` without scipy's per-call dispatch overhead.

        At legalization sizes the Python dispatch around ``M @ x`` costs
        several times the C kernel itself; this calls the kernel directly
        and accumulates into a caller-owned buffer.
        """
        _spt.csr_matvec(
            M.shape[0], M.shape[1], M.indptr, M.indices, M.data, x, y
        )

    #: scipy's row-by-row CSR concatenation (scipy >= 1.11), which
    #: :func:`rhs_operator` builds K with.  Without it a sweep keeps the
    #: four-matvec right-hand side (the same bits, one matvec slower).
    _csr_hstack = getattr(_spt, "csr_hstack", None)

except ImportError:  # pragma: no cover - scipy always ships _sparsetools

    def csr_matvec_into(M: sp.csr_matrix, x: np.ndarray, y: np.ndarray):
        y += M @ x

    _csr_hstack = None


# ----------------------------------------------------------------------
# Probe vectors
# ----------------------------------------------------------------------
#: Cap on cached probe vectors: a long-lived service legalizing designs
#: of ever-new sizes would otherwise grow one entry per distinct
#: (sub)system size, forever.  Probe sizes cluster heavily (micro-shards
#: bucket by structure), so a small LRU keeps the hit rate while
#: bounding residency.
PROBE_CACHE_CAP = 256

_PROBE_SEED = 20170618


@functools.lru_cache(maxsize=PROBE_CACHE_CAP)
def probe_vector(size: int, salt: int = 0) -> np.ndarray:
    """Deterministic standard-normal probe of ``size`` entries.

    Cached per ``(size, salt)`` (micro-sharded designs build thousands of
    tiny splittings and the RNG construction dominated their probe cost),
    LRU-capped at :data:`PROBE_CACHE_CAP`.  The cached array is marked
    read-only; every LAPACK wrapper used on it copies (``overwrite_b``
    defaults off).  ``salt`` selects an independent vector of the same
    size.
    """
    probe = np.random.default_rng(_PROBE_SEED + salt).standard_normal(size)
    probe.setflags(write=False)
    return probe


def probe_cache_size() -> int:
    """Current number of cached probe vectors (for tests/diagnostics)."""
    return probe_vector.cache_info().currsize


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def rhs_operator(splitting) -> sp.csr_matrix:
    """The stacked operator K of a sweep's right-hand side.

    K acts on :class:`ReferenceSweepRunner`'s work vector
    ``[s, |s|, u, w]`` of a :class:`~repro.core.splitting.
    LegalizationSplitting` (``u = (1/β*−1)·s₁ − |s|₁``, ``w = s₂ + |s|₂``).
    Top row i lists H's stored entries of row i, then Bᵀ's; bottom row j
    lists D/θ*'s, then −B's; each entry's column is shifted onto the work
    vector's part it multiplies (u, w, s₂ and |s|₁ respectively).
    ``csr_matvec`` sums a row's entries in storage order onto the value
    it starts from, so ``rhs += K·work`` adds the terms of the four
    sequential matvecs ``H·u``, ``Bᵀ·w`` (top) and ``(D/θ*)·s₂``,
    ``−B·|s|₁`` (bottom) in their order: the same bits.
    """
    n, size = splitting.n, splitting.n + splitting.m
    H, BT = splitting.H, splitting.BT
    D, B_neg = splitting._D_theta, splitting._B_neg
    # Two column blocks over all rows, each with its own row pointers (H
    # over D/θ*, then Bᵀ over −B) and its columns already shifted; zero
    # block widths keep them, and csr_hstack lists each row's entries of
    # the first block, then of the second.
    ptr = np.concatenate(
        (H.indptr, D.indptr[1:] + H.nnz, BT.indptr, B_neg.indptr[1:] + BT.nnz)
    )
    idx = np.concatenate(
        (
            H.indices + 2 * size, D.indices + n,
            BT.indices + (2 * size + n), B_neg.indices + size,
        ),
        dtype=ptr.dtype,
    )
    val = np.concatenate((H.data, D.data, BT.data, B_neg.data))
    indptr = np.empty(size + 1, dtype=ptr.dtype)
    indices = np.empty_like(idx)
    data = np.empty_like(val)
    _csr_hstack(
        2, size, np.zeros(2, dtype=ptr.dtype), ptr, idx, val,
        indptr, indices, data,
    )
    return sp.csr_matrix((data, indices, indptr), shape=(size, 3 * size))


class ReferenceSweepRunner:
    """The modulus sweep, Eq. (3), resolved once per solve.

    Over a :class:`~repro.core.splitting.LegalizationSplitting`, with any
    kernel it carries (a Woodbury or SuperLU top; a ``pttrs``, ``gttrs``,
    scalar, SuperLU or no bottom), the runner owns one work vector
    ``[s, |s|, u, w]`` and the rhs scratch, and a sweep allocates nothing:

    1. ``u = (1/β*−1)·s₁ − |s|₁`` (no multiply when 1/β*−1 is 1, as at
       the paper's β* = 0.5) and ``w = s₂ + |s|₂``;
    2. ``rhs = |s| − γq``, then ``rhs += K·work`` with K from
       :func:`rhs_operator`, built on the runner's second sweep.  The first
       sweep adds ``H·u``, ``Bᵀ·w``, ``(D/θ*)·s₂`` and ``−B·|s|₁`` one
       matvec at a time, so a one-sweep solve never builds K;
    3. for damping, ``(1−ω)·s`` into u, w, which the rhs has consumed;
    4. ``splitting.solve_into(rhs, s)``: the block lower-triangular solve
       writes the next iterate ŝ over s;
    5. ``s = ω·ŝ + (1−ω)·s`` for a scalar ω, or per entry where an array
       ω (the batched drive's per-shard damping) is not 1;
    6. ``|s|`` of the new iterate, which the next sweep's rhs and the
       drive's z both read (:attr:`s_abs`).

    Each step is the operation, on the same values in the same order, of
    the separate rhs, solve and damping passes this sweep replaces, so the
    iterates are the same bits.  Any other splitting (the Jacobi,
    Gauss–Seidel, SOR and exact splittings of :mod:`repro.lcp.splittings`)
    sweeps ``solve_M_plus_omega(apply_N(s) + apply_omega_minus_A(|s|) −
    γq)`` with the same damping forms, allocating as it goes.

    The array :meth:`run` returns and :attr:`s_abs` belong to the runner:
    the next :meth:`run` overwrites them.  The caller's ``s`` is only read.
    """

    def __init__(self, splitting) -> None:
        # Imported here: repro.core.splitting imports this module.
        from repro.core.splitting import LegalizationSplitting

        self._splitting = splitting
        #: The iterate :meth:`run` last returned, and its ``|s|``.
        self._s = None
        self.s_abs = None
        self._work = None
        if not isinstance(splitting, LegalizationSplitting):
            return
        n, size = splitting.n, splitting.n + splitting.m
        self._work = work = np.empty(3 * size)
        self._s, self.s_abs, uw = np.split(work, 3)
        self._uw = uw
        self._rhs = np.empty(size)
        self._halves = (
            self._s[:n], self._s[n:], self.s_abs[:n], self.s_abs[n:],
            uw[:n], uw[n:], self._rhs[:n], self._rhs[n:],
        )
        self._coef = 1.0 / splitting.params.beta - 1.0
        self._K = None
        self._swept = False

    def _load(self, s) -> None:
        if s is not self._s:
            np.copyto(self._s, s)
            np.abs(self._s, out=self.s_abs)

    def _rhs_at(self, gq) -> np.ndarray:
        """``N s + (Ω − A)|s| − γq`` at the loaded iterate, in the scratch."""
        s1, s2, t1, t2, u, w, top, bottom = self._halves
        if self._coef == 1.0:
            np.subtract(s1, t1, out=u)
        else:
            np.multiply(s1, self._coef, out=u)
            u -= t1
        np.add(s2, t2, out=w)
        rhs = self._rhs
        np.subtract(self.s_abs, gq, out=rhs)
        if self._K is None and self._swept and _csr_hstack is not None:
            self._K = rhs_operator(self._splitting)
        self._swept = True
        if self._K is not None:
            csr_matvec_into(self._K, self._work, rhs)
        else:
            spl = self._splitting
            csr_matvec_into(spl.H, u, top)
            csr_matvec_into(spl.BT, w, top)
            csr_matvec_into(spl._D_theta, s2, bottom)
            csr_matvec_into(spl._B_neg, t1, bottom)
        return rhs

    def rhs(self, s, gq) -> np.ndarray:
        """The right-hand side ``N s + (Ω − A)|s| − γq`` a sweep from *s*
        solves with, over a legalization splitting: the runner's scratch,
        overwritten by the next call or sweep."""
        self._load(s)
        return self._rhs_at(gq)

    def run(self, s, count, gq, omega=None):
        """Advance ``count`` modulus sweeps from iterate ``s``."""
        if self._work is None:
            return self._run_generic(s, count, gq, omega)
        self._load(s)
        s, s_abs, uw = self._s, self.s_abs, self._uw
        solve_into = self._splitting.solve_into
        keep = damped = None
        if isinstance(omega, np.ndarray):
            keep, damped = 1.0 - omega, omega != 1.0
        elif omega is not None and omega != 1.0:
            keep = 1.0 - omega
        for _ in range(count):
            rhs = self._rhs_at(gq)
            if keep is not None:
                np.multiply(s, keep, out=uw)
            solve_into(rhs, s)
            if damped is not None:
                np.multiply(omega, s, out=s_abs)
                s_abs += uw
                np.copyto(s, s_abs, where=damped)
            elif keep is not None:
                s *= omega
                s += uw
            np.abs(s, out=s_abs)
        return s

    def _run_generic(self, s, count, gq, omega):
        spl = self._splitting
        s_abs = self.s_abs if s is self._s else np.abs(s)
        for _ in range(count):
            s_hat = spl.solve_M_plus_omega(
                spl.apply_N(s) + spl.apply_omega_minus_A(s_abs) - gq
            )
            if isinstance(omega, np.ndarray):
                s = np.where(
                    omega == 1.0, s_hat, omega * s_hat + (1.0 - omega) * s
                )
            elif omega is None or omega == 1.0:
                s = s_hat
            else:
                s = omega * s_hat + (1.0 - omega) * s
            s_abs = np.abs(s)
        self._s, self.s_abs = s, s_abs
        return s
