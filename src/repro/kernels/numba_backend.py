"""Optional numba JIT sweep backend.

Compiles the entire K-sweep block — fused rhs, Woodbury top matvec,
``pttrf``-factored tridiagonal bottom solve, damping — into one nopython
function over the splitting's raw CSR arrays, eliminating every per-sweep
numpy dispatch.  The tridiagonal solve re-implements LAPACK ``pttrs``'s
L·D·Lᵀ recurrences directly on the stored ``pttrf`` factors (the stacked
bands decouple at the zero shard-boundary couplings exactly as in the
LAPACK path).

The backend is *optional* (install with the ``kernels-numba`` extra):
:mod:`numba` is imported lazily on first arm, the kernel is compiled once
per process, and a missing module degrades silently to the reference
backend with a ``kernel.backend_unavailable`` counter — never an
exception.  Re-associated reductions (local accumulators instead of the
C kernel's in-buffer accumulation) put it in the ``"reordered"`` tolerance
class; the probe gate verifies every armed instance against the reference
sweep anyway.

The sweep body (:func:`_sweep_kernel`) is written as a plain Python
function and jitted at arm time, so its arithmetic is unit-testable in
environments without numba (see ``tests/test_kernels.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.base import DEFAULT_BLOCK, KernelBackend, SweepRunner

_UNSET = object()
_NUMBA = _UNSET
_COMPILED = None


def _numba_module():
    """The numba module, or None when not installed (cached)."""
    global _NUMBA
    if _NUMBA is _UNSET:
        try:  # pragma: no cover - depends on environment
            import numba  # type: ignore

            _NUMBA = numba
        except Exception:
            _NUMBA = None
    return _NUMBA


def _sweep_kernel(
    count, n, m, coef,
    h_indptr, h_indices, h_data,
    hi_indptr, hi_indices, hi_data,
    bt_indptr, bt_indices, bt_data,
    bn_indptr, bn_indices, bn_data,
    dt_indptr, dt_indices, dt_data,
    pt_d, pt_e, bottom_mode, pivot,
    gq, s, out, omega_mode, omega_scalar, omega_entry,
):
    """``count`` modulus sweeps; plain Python, njit-compatible.

    ``s`` is the (mutable, runner-owned) iterate, overwritten in place;
    the final iterate is also copied to ``out``.  ``coef`` is ``1/β*−1``;
    ``bottom_mode`` is 0 (m = 0), 1 (scalar pivot) or 2 (``pttrf``
    factors ``pt_d``/``pt_e``); ``omega_mode`` is 0 (plain), 1 (scalar ω)
    or 2 (per-entry ω array, the batched engine's damping form).
    """
    size = n + m
    t = np.empty(n)
    u = np.empty(n)
    w = np.empty(m)
    rhs = np.empty(size)
    s_new = np.empty(size)
    for _ in range(count):
        # Fused rhs: top = H @ (coef·s₁ − |s|₁) + Bᵀ @ (s₂+|s|₂) + |s|₁ − γq₁,
        #            bottom = (D/θ*) @ s₂ − B @ |s|₁ + |s|₂ − γq₂.
        for i in range(n):
            si = s[i]
            ti = abs(si)
            t[i] = ti
            u[i] = coef * si - ti
            rhs[i] = ti - gq[i]
        for i in range(n):
            acc = 0.0
            for p in range(h_indptr[i], h_indptr[i + 1]):
                acc += h_data[p] * u[h_indices[p]]
            rhs[i] += acc
        if m:
            for j in range(m):
                sj = s[n + j]
                tj = abs(sj)
                w[j] = sj + tj
                rhs[n + j] = tj - gq[n + j]
            for i in range(n):
                acc = 0.0
                for p in range(bt_indptr[i], bt_indptr[i + 1]):
                    acc += bt_data[p] * w[bt_indices[p]]
                rhs[i] += acc
            for j in range(m):
                acc = 0.0
                for p in range(dt_indptr[j], dt_indptr[j + 1]):
                    acc += dt_data[p] * s[n + dt_indices[p]]
                for p in range(bn_indptr[j], bn_indptr[j + 1]):
                    acc += bn_data[p] * t[bn_indices[p]]
                rhs[n + j] += acc
        # Block lower-triangular solve: top via the Woodbury inverse,
        # bottom via the prefactorized tridiagonal.
        for i in range(n):
            acc = 0.0
            for p in range(hi_indptr[i], hi_indptr[i + 1]):
                acc += hi_data[p] * rhs[hi_indices[p]]
            s_new[i] = acc
        if m:
            for j in range(m):
                acc = rhs[n + j]
                for p in range(bn_indptr[j], bn_indptr[j + 1]):
                    acc += bn_data[p] * s_new[bn_indices[p]]
                w[j] = acc
            if bottom_mode == 1:
                s_new[n] = w[0] / pivot
            else:
                # pttrs: forward L, then D, then Lᵀ.
                s_new[n] = w[0]
                for j in range(1, m):
                    s_new[n + j] = w[j] - pt_e[j - 1] * s_new[n + j - 1]
                s_new[n + m - 1] = s_new[n + m - 1] / pt_d[m - 1]
                for j in range(m - 2, -1, -1):
                    s_new[n + j] = (
                        s_new[n + j] / pt_d[j] - pt_e[j] * s_new[n + j + 1]
                    )
        # Damping (same forms as the reference runner), then advance.
        if omega_mode == 0 or (omega_mode == 1 and omega_scalar == 1.0):
            tmp = s
            s = s_new
            s_new = tmp
        elif omega_mode == 1:
            for i in range(size):
                s[i] = omega_scalar * s_new[i] + (1.0 - omega_scalar) * s[i]
        else:
            for i in range(size):
                oi = omega_entry[i]
                if oi == 1.0:
                    s[i] = s_new[i]
                else:
                    s[i] = oi * s_new[i] + (1.0 - oi) * s[i]
    for i in range(size):
        out[i] = s[i]


def _compiled_kernel():
    """The jitted sweep, compiled once per process (None without numba)."""
    global _COMPILED
    if _COMPILED is None:
        numba = _numba_module()
        if numba is None:  # pragma: no cover - depends on environment
            return None
        _COMPILED = numba.njit(cache=False, fastmath=False)(_sweep_kernel)
    return _COMPILED


def _csr_parts(M):
    return M.indptr, M.indices, M.data


class NumbaSweepRunner(SweepRunner):
    """Armed JIT runner over one fast splitting's raw arrays."""

    block = DEFAULT_BLOCK

    def __init__(self, splitting, fn) -> None:
        self.splitting = splitting
        self._fn = fn
        n, m = splitting.n, splitting.m
        self._n = n
        self._m = m
        empty_f = np.empty(0)
        empty_i = np.zeros(1, dtype=np.int32)
        if m:
            dt = _csr_parts(splitting._D_theta)
            bn = _csr_parts(splitting._B_neg)
            bt = _csr_parts(splitting.BT)
        else:
            dt = bn = bt = (empty_i, empty_i[:0], empty_f)
        if splitting.bottom_kernel == "pttrs":
            bottom_mode = 2
            pt_d, pt_e = splitting._pttrf_factors
            pivot = 1.0
        elif splitting.bottom_kernel == "scalar":
            bottom_mode = 1
            pt_d, pt_e = empty_f, empty_f
            pivot = splitting._bottom_pivot
        else:
            bottom_mode = 0
            pt_d, pt_e = empty_f, empty_f
            pivot = 1.0
        self._static = (
            n, m, 1.0 / splitting.params.beta - 1.0,
            *_csr_parts(splitting.H),
            *_csr_parts(splitting._H_inv_top),
            *bt, *bn, *dt,
            np.ascontiguousarray(pt_d), np.ascontiguousarray(pt_e),
            bottom_mode, float(pivot),
        )
        self._out = np.empty(n + m)
        self._scratch = np.empty(n + m)
        self._empty_omega = np.empty(0)

    def run(self, s, count, gq, omega=None):
        if omega is None:
            mode, om_s, om_e = 0, 1.0, self._empty_omega
        elif np.ndim(omega) == 0:
            mode, om_s, om_e = 1, float(omega), self._empty_omega
        else:
            mode, om_s, om_e = 2, 1.0, omega
        # The kernel mutates its iterate in place; hand it a runner-owned
        # copy so the caller's s (possibly a read-only probe) is untouched.
        np.copyto(self._scratch, s)
        self._fn(
            count, *self._static,
            gq, self._scratch, self._out, mode, om_s, om_e,
        )
        return self._out


class NumbaBackend(KernelBackend):
    """Optional JIT backend; silently unavailable without numba."""

    name = "numba"
    tolerance_class = "reordered"

    def available(self) -> bool:
        return _numba_module() is not None

    def unavailable_reason(self) -> Optional[str]:
        if self.available():
            return None
        return "numba is not installed (pip install 'repro[kernels-numba]')"

    def build_runner(self, splitting) -> Optional[NumbaSweepRunner]:
        if splitting.top_kernel != "woodbury" or splitting._H_inv_top is None:
            return None
        if splitting.m and splitting.bottom_kernel not in ("pttrs", "scalar"):
            return None
        if splitting.bottom_kernel == "pttrs" and (
            getattr(splitting, "_pttrf_factors", None) is None
        ):
            return None
        fn = _compiled_kernel()
        if fn is None:  # pragma: no cover - depends on environment
            return None
        return NumbaSweepRunner(splitting, fn)
