"""The MMSIM sweep and the primitives it builds on.

* :func:`csr_matvec_into` — the direct ``scipy.sparse._sparsetools``
  matvec (``y += M @ x``) that every sweep builds on;
* :func:`probe_vector` — the capped cache of deterministic probe vectors
  that ``LegalizationSplitting`` verifies its block solvers with;
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

except ImportError:  # pragma: no cover - scipy always ships _sparsetools

    def csr_matvec_into(M: sp.csr_matrix, x: np.ndarray, y: np.ndarray):
        y += M @ x


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
class ReferenceSweepRunner:
    """The per-sweep arithmetic, resolved once per solve.

    Each sweep is the fused rhs when the splitting provides one (else
    ``N s + (Ω − A)|s| − γq`` from the separate products),
    ``solve_M_plus_omega``, then the damping form matching *omega*'s
    shape: ``None`` for the plain iteration, a scalar ω for the
    per-shard drive, or a per-entry array for the batched drive's
    per-shard damping (``np.where(ω == 1, ŝ, ω·ŝ + (1−ω)·s)``).  The
    splitting's callables are resolved here, so a step costs one method
    call over the sweep itself.
    """

    def __init__(self, splitting) -> None:
        self._solve = splitting.solve_M_plus_omega
        fused = getattr(splitting, "apply_rhs", None)
        if fused is None:
            apply_N = splitting.apply_N
            apply_omega_minus_A = splitting.apply_omega_minus_A

            def fused(s, s_abs, gq):
                return apply_N(s) + apply_omega_minus_A(s_abs) - gq

        self._rhs = fused

    def run(self, s, count, gq, omega=None):
        """Advance ``count`` modulus sweeps from iterate ``s``."""
        rhs = self._rhs
        solve = self._solve
        if isinstance(omega, np.ndarray):
            plain = omega == 1.0
            for _ in range(count):
                s_hat = solve(rhs(s, np.abs(s), gq))
                s = np.where(plain, s_hat, omega * s_hat + (1.0 - omega) * s)
        elif omega is None or omega == 1.0:
            for _ in range(count):
                s = solve(rhs(s, np.abs(s), gq))
        else:
            for _ in range(count):
                s_hat = solve(rhs(s, np.abs(s), gq))
                s = omega * s_hat + (1.0 - omega) * s
        return s
