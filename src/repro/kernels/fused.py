"""Fused pure-numpy sweep backend: K sweeps per Python-level step.

The reference path pays, per sweep, not just the four sparse matvecs and
the tridiagonal solve but also a fresh ``|s|`` temporary, a ``np.zeros``
for the block solve, the ``z = (|s|+s)/γ`` bookkeeping, the per-segment
step reductions, and the convergence branchwork.  At
micro-shard sizes those tiny numpy calls dominate the arithmetic.

This backend keeps the *identical* per-sweep arithmetic — same operations,
same order, accumulating through :func:`repro.kernels.reference.csr_matvec_into`
into preallocated ping-pong buffers instead of fresh allocations — and
exposes it as a :class:`~repro.kernels.base.SweepRunner` with
``block = DEFAULT_BLOCK``, so the solver drives can advance up to ``K = 8``
sweeps per Python-level step, computing ``z`` and the convergence step
only at block boundaries.  A single fused sweep therefore matches the reference sweep to
the last bit in practice (the probe gate still verifies it); whole *runs*
are only tolerance-equivalent because convergence is detected on block
boundaries — a run that would have stopped at iteration k now stops at the
next multiple of K, a strictly-later iterate of the same contraction (the
documented "reordered" tolerance class).

The runner reuses the splitting's prescaled ``D/θ*`` and ``−B`` blocks,
Woodbury top inverse and prefactorized bottom solve, and works on both
per-shard and stacked batched splittings — the stacked layout is just a
bigger block-diagonal instance of the same structure.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import DEFAULT_BLOCK, KernelBackend, SweepRunner
from repro.kernels.reference import csr_matvec_into


class FusedSweepRunner(SweepRunner):
    """Preallocated in-place modulus sweeps over one fast splitting."""

    block = DEFAULT_BLOCK

    def __init__(self, splitting) -> None:
        self.splitting = splitting
        n, m = splitting.n, splitting.m
        self._n = n
        self._m = m
        # Scratch: |s|, fused rhs, the two matvec accumulators, and the
        # ping-pong iterate buffers (a sweep reads one and writes the
        # other, so the caller's incoming s is never clobbered).
        self._abs = np.empty(n + m)
        self._rhs = np.empty(n + m)
        self._u = np.empty(n)
        self._w = np.empty(m)
        self._ping = np.empty(n + m)
        self._pong = np.empty(n + m)

    def _sweep(self, s: np.ndarray, target: np.ndarray, gq, omega):
        sp = self.splitting
        n = self._n
        s_abs = self._abs
        np.abs(s, out=s_abs)
        # Fused rhs — the same pass as LegalizationSplitting.apply_rhs,
        # into runner-owned buffers.
        s1 = s[:n]
        t1 = s_abs[:n]
        u = self._u
        np.multiply(s1, 1.0 / sp.params.beta - 1.0, out=u)
        u -= t1
        rhs = self._rhs
        top = rhs[:n]
        np.subtract(t1, gq[:n], out=top)
        csr_matvec_into(sp.H, u, top)
        if self._m:
            s2 = s[n:]
            t2 = s_abs[n:]
            w = self._w
            np.add(s2, t2, out=w)
            csr_matvec_into(sp.BT, w, top)
            bottom = rhs[n:]
            np.subtract(t2, gq[n:], out=bottom)
            csr_matvec_into(sp._D_theta, s2, bottom)
            csr_matvec_into(sp._B_neg, t1, bottom)
        # Block lower-triangular solve — same as solve_M_plus_omega with
        # the zeroed accumulator preallocated.
        o1 = target[:n]
        o1.fill(0.0)
        if sp._H_inv_top is not None:
            csr_matvec_into(sp._H_inv_top, rhs[:n], o1)
        else:
            o1[:] = sp._solve_top(rhs[:n])
        if self._m:
            w = self._w
            np.copyto(w, rhs[n:])
            csr_matvec_into(sp._B_neg, o1, w)
            target[n:] = sp._solve_bottom(w)
        # Damping, in the same arithmetic form as the reference runner for
        # each omega shape (see repro.kernels.base).
        if omega is None:
            return target
        if np.ndim(omega) == 0:
            if omega == 1.0:
                return target
            np.multiply(s, 1.0 - omega, out=s_abs)
            target *= omega
            target += s_abs
            return target
        np.copyto(
            target,
            np.where(omega == 1.0, target, omega * target + (1.0 - omega) * s),
        )
        return target

    def run(self, s, count, gq, omega=None):
        a, b = self._ping, self._pong
        for _ in range(count):
            target = b if s is a else a
            s = self._sweep(s, target, gq, omega)
        return s


class FusedBackend(KernelBackend):
    """Always-available pure-numpy blocked backend."""

    name = "fused"
    tolerance_class = "reordered"

    def build_runner(self, splitting) -> FusedSweepRunner:
        return FusedSweepRunner(splitting)
