"""Reference sweep primitives: the numpy/LAPACK path, owned here.

This module is the registry's home for the primitives that used to be
inlined in :mod:`repro.core.splitting`:

* :func:`csr_matvec_into` — the direct ``scipy.sparse._sparsetools``
  matvec (``y += M @ x``) that every fast sweep builds on;
* :func:`probe_vector` — the capped cache of deterministic probe vectors
  used by kernel verification (both the per-block-solver probes inside
  ``LegalizationSplitting`` and the registry's backend probe gate);
* :class:`ReferenceSweepRunner` — the reference modulus sweep, expressed
  over any :class:`repro.lcp.mmsim.Splitting`, as a one-sweep
  (``block = 1``) runner.  The solver drives use it whenever a splitting
  has no armed backend runner — the reference backend, generic splittings
  and repacks whose backend declined;
* :func:`reference_sweeps` — the same arithmetic as a function, the
  oracle every other backend is probe-verified against.

The reference *backend* itself arms no runner: the drives fall back to
:class:`ReferenceSweepRunner`, and with one sweep per step they test
convergence and stall rescue after every sweep, which is what keeps the
reference backend bit-identical to the plain per-sweep iteration (and the
default).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.kernels.base import KernelBackend, SweepRunner

try:  # pragma: no cover - exercised indirectly by every fast solve
    from scipy.sparse import _sparsetools as _spt

    def csr_matvec_into(M: sp.csr_matrix, x: np.ndarray, y: np.ndarray):
        """``y += M @ x`` without scipy's per-call dispatch overhead.

        At legalization sizes the Python dispatch around ``M @ x`` costs
        several times the C kernel itself; this calls the kernel directly
        and accumulates into a caller-owned buffer (what the fused sweep
        wants anyway).
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
#: Cap on cached probe vectors.  The cache used to be an unbounded dict in
#: core.splitting: a long-lived service legalizing designs of ever-new
#: sizes grew one entry per distinct (sub)system size, forever.  Probe
#: sizes cluster heavily (micro-shards bucket by structure), so a small
#: LRU keeps the hit rate while bounding residency.
PROBE_CACHE_CAP = 256

_PROBE_SEED = 20170618
_PROBE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_PROBE_LOCK = threading.Lock()


def probe_vector(size: int, salt: int = 0) -> np.ndarray:
    """Deterministic standard-normal probe of ``size`` entries.

    Cached per ``(size, salt)`` (micro-sharded designs build thousands of
    tiny splittings and the RNG construction dominated their probe cost),
    LRU-capped at :data:`PROBE_CACHE_CAP`.  The cached array is marked
    read-only; every LAPACK wrapper used on it copies (``overwrite_b``
    defaults off).  ``salt`` selects an independent vector of the same
    size (the backend probe gate needs two: an iterate and a q).
    """
    key = (int(size), int(salt))
    with _PROBE_LOCK:
        probe = _PROBE_CACHE.get(key)
        if probe is not None:
            _PROBE_CACHE.move_to_end(key)
            return probe
    probe = np.random.default_rng(_PROBE_SEED + salt).standard_normal(size)
    probe.setflags(write=False)
    with _PROBE_LOCK:
        _PROBE_CACHE[key] = probe
        _PROBE_CACHE.move_to_end(key)
        while len(_PROBE_CACHE) > PROBE_CACHE_CAP:
            _PROBE_CACHE.popitem(last=False)
    return probe


def probe_cache_size() -> int:
    """Current number of cached probe vectors (for tests/diagnostics)."""
    with _PROBE_LOCK:
        return len(_PROBE_CACHE)


# ----------------------------------------------------------------------
# The reference sweep
# ----------------------------------------------------------------------
class ReferenceSweepRunner(SweepRunner):
    """The reference per-sweep arithmetic as a one-sweep runner.

    Each sweep is the fused rhs when the splitting provides one (else
    ``N s + (Ω − A)|s| − γq`` from the separate products),
    ``solve_M_plus_omega``, then the damping form matching *omega*'s
    shape (see :mod:`repro.kernels.base`).  The splitting's callables are
    resolved once here, so a step costs one method call over the sweep
    itself.  ``block = 1`` keeps the drives' geometric ramp at one sweep
    per step: every sweep is measured, so the iterate stream, stopping
    sweep and rescue schedule are those of the plain iteration.
    """

    block = 1

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


def reference_sweeps(
    splitting, s: np.ndarray, count: int, gq: np.ndarray, omega=None
) -> np.ndarray:
    """``count`` modulus sweeps with the reference per-sweep arithmetic.

    The probe-gate oracle every other backend is verified against; see
    :class:`ReferenceSweepRunner`.
    """
    return ReferenceSweepRunner(splitting).run(s, count, gq, omega)


class ReferenceBackend(KernelBackend):
    """The default backend: arm nothing, probe-gate nothing.

    ``build_runner`` returns None, so the splitting's ``sweep_runner``
    stays None and the drives run :class:`ReferenceSweepRunner` — the
    reference arithmetic is never probe-gated against itself.
    """

    name = "reference"
    tolerance_class = "bitwise"

    def build_runner(self, splitting) -> Optional[None]:
        return None
