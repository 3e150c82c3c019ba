"""The preallocated fused sweep, kept as a test oracle.

:class:`FusedSweepRunner` is the MMSIM sweep written with runner-owned
ping-pong buffers and ``csr_matvec_into`` accumulation, the form the
``fused`` kernel backend used to run.  It performs the reference sweep's
operations in the same order, so it must agree with
:class:`repro.kernels.reference.ReferenceSweepRunner` bit for bit, and
:func:`install` puts it under both solver drives so that a whole flow
under ``kernel_backend="fused"`` can be compared against it.  Nothing
under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

import repro.core.batched as batched
import repro.lcp.mmsim as mmsim
from repro.kernels.reference import csr_matvec_into


class FusedSweepRunner:
    """Preallocated in-place modulus sweeps over one fast splitting."""

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

    def _sweep(self, s, target, gq, omega):
        sp = self.splitting
        n = self._n
        s_abs = self._abs
        np.abs(s, out=s_abs)
        # Fused rhs: the same pass as LegalizationSplitting.apply_rhs.
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
        # Block lower-triangular solve: solve_M_plus_omega with the
        # zeroed accumulator preallocated.
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
        # Damping, in the reference runner's arithmetic for each shape.
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
        # The drives read |s| of the returned iterate from the runner.
        self.s_abs = np.abs(s)
        return s


def install(monkeypatch) -> None:
    """Run both MMSIM drives on :class:`FusedSweepRunner`."""
    monkeypatch.setattr(mmsim, "ReferenceSweepRunner", FusedSweepRunner)
    monkeypatch.setattr(batched, "ReferenceSweepRunner", FusedSweepRunner)
