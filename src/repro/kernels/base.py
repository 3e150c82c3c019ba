"""Sweep-kernel backend contract.

A *backend* owns the inner MMSIM sweep over one (possibly stacked)
block-lower-triangular splitting: everything between "here is the modulus
iterate s^k" and "here is s^{k+K}".  The solver drives in
:mod:`repro.lcp.mmsim` and :mod:`repro.core.batched` keep ownership of
convergence testing, stall rescue, telemetry and repacking; a runner only
replaces the arithmetic between convergence checks, which is why a
runner with ``block > 1`` may run several sweeps per Python-level step
without recomputing ``z`` in between.  Splittings without an armed
runner (the reference backend, generic splittings) are driven by
:class:`~repro.kernels.reference.ReferenceSweepRunner` with ``block = 1``.

Two contracts live here:

* :class:`KernelBackend` — a named, registrable factory.  ``build_runner``
  inspects one prefactorized
  :class:`~repro.core.splitting.LegalizationSplitting` and either returns a
  :class:`SweepRunner` bound to it or ``None`` to decline (unsupported
  structure).  The registry then *probe-gates* the runner: one sweep on a
  deterministic probe vector is compared against the reference arithmetic
  and any mismatch rejects the backend for that splitting (falling back to
  reference, counted by the ``kernel.backend_rejected`` metric).

* :class:`SweepRunner` — the armed per-splitting object.  ``run(s, count,
  gq, omega)`` advances ``count`` modulus sweeps

      s ← damp(ω, solve_{M+Ω}(N s + (Ω − A)|s| − γq), s)

  and returns the new iterate, which may live in a runner-owned scratch
  buffer: callers must treat the returned array as invalidated by the next
  ``run`` call (the solver drives copy what they keep).

``omega`` is the damping state in one of three shapes: ``None`` for the
plain iteration, a scalar ω for the per-shard drive, or a per-entry array
for the batched drive's per-shard damping (where the reference arithmetic
is ``np.where(ω == 1, ŝ, ω·ŝ + (1−ω)·s)``).

Tolerance classes
-----------------
``tolerance_class`` documents how a backend's results relate to the
reference path:

* ``"bitwise"`` — identical floating-point stream (reference only);
* ``"reordered"`` — same fixed points, but block-aligned convergence
  checks (and, for JIT backends, re-associated reductions) mean runs stop
  at different iterates inside the solver tolerance.  Differentially
  tested by the fuzz oracle's ``tolerance`` comparison group (agreement
  within ``agreement_sites`` site widths and the objective rtol; see
  docs/FUZZING.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Default sweeps per Python-level step for blocked backends.  The drives
#: ramp up to ``block`` sweeps between convergence checks; 8 amortizes
#: most of the per-sweep Python dispatch while keeping the worst-case
#: overshoot (converging mid-block) a handful of cheap sweeps.
DEFAULT_BLOCK = 8


class SweepRunner:
    """One backend's armed sweep loop over a specific splitting."""

    #: Most sweeps to fuse per Python-level step (the drives ramp up to it
    #: and clamp it onto the budget and the stall-rescue schedule).
    block: int = DEFAULT_BLOCK

    def run(
        self,
        s: np.ndarray,
        count: int,
        gq: np.ndarray,
        omega=None,
    ) -> np.ndarray:
        """Advance ``count`` sweeps from iterate ``s``; see module doc."""
        raise NotImplementedError


class KernelBackend:
    """A registrable sweep-kernel backend (see module docstring)."""

    #: Registry name (``LegalizerConfig.kernel_backend`` value).
    name: str = "base"
    #: "bitwise" or "reordered"; see module docstring.
    tolerance_class: str = "reordered"

    def available(self) -> bool:
        """Whether the backend can run in this environment.

        Unavailable backends (e.g. :mod:`numba` not installed) degrade to
        reference silently with a ``kernel.backend_unavailable`` counter —
        never an exception.
        """
        return True

    def unavailable_reason(self) -> Optional[str]:
        """Human-readable reason when :meth:`available` is False."""
        return None

    def build_runner(self, splitting) -> Optional[SweepRunner]:
        """A :class:`SweepRunner` for *splitting*, or None to decline."""
        raise NotImplementedError
