"""Batched micro-shard MMSIM execution engine for cross-design stacks.

:mod:`repro.core.sharding` makes the legalization KKT LCP exactly block
diagonal over coupling components, and :mod:`repro.core.multi` stacks
several designs' systems the same way.  Dispatching one Python-level
``mmsim_solve`` per component of such a stack means a burst of small
designs (hundreds of micro-shards: short chains of adjacent cells) pays
per-shard Python and setup overhead that dwarfs the arithmetic.  This
module, reached through ``solve_sharded(..., batch=True)``, keeps the
per-component *stopping* win of micro-sharding while running the sweeps
as a handful of vectorized operations:

* shards are grouped by **structural signature** — pure-chain (no E
  rows, H = I) vs. coupled, and a log₂ size bucket — so each group's
  stacked system stays structurally homogeneous;
* each group's blocks are sliced out of the global matrices in **one
  permutation** (``H[π][:,π]`` etc.); because every B/E row touches only
  its own shard's columns, the slice *is* the block-diagonal stacking of
  the per-shard blocks, entry for entry, so one
  :class:`~repro.core.splitting.LegalizationSplitting` over the stacked
  blocks provides the batched Woodbury top solve, the batched
  tridiagonal bottom solve (LAPACK ``pttrf``/``pttrs`` factor the
  concatenated D bands; the zero couplings at shard boundaries decouple
  the recurrence bitwise), and the allocation-free sweep;
* **per-shard convergence masking**: every sweep reduces the z-step per
  shard (segment maxima); a shard that clears its own tolerance is
  audited against its rows of the stacked KKT matrix and its result
  frozen at that iteration, exactly like the per-shard path.  Finished
  shards ride along (their slice of the stacked sweep is wasted work —
  reported as ``batch.padding_waste``) until enough of the group has
  converged, at which point the survivors are **repacked** into a
  smaller stack and the sweep continues where it left off;
* the per-shard stall rescue (progressive damping, see
  :mod:`repro.lcp.mmsim`) runs per shard on the group state, with the
  same schedule and the same arithmetic.

Results are bit-identical to the per-shard path: slicing preserves every
stored value and per-row entry order (so every sparse matvec accumulates
in the same order), the tridiagonal factorization recurrences are local
and restart exactly at the zero boundary couplings, and all elementwise
updates are the same operations on the same values.  Groups whose
stacked kernels fail their probe verification — or that are too small to
be worth stacking — fall back to the ordinary per-shard solve, and the
resilience ladder can still peel any individual shard out of a batch
when its result fails the KKT audit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.sharding import StackDeclined
from repro.kernels.reference import ReferenceSweepRunner
from repro.lcp.mmsim import MMSIMOptions, warm_start_from_z
from repro.lcp.problem import LCPResult
from repro.telemetry import current_session

#: Cap on the log₂ size bucket of the grouping signature: shards of
#: ``n + m`` variables land in bucket ``min(bit_length(n+m), 8)``, so
#: everything above 256 entries shares one bucket.
SIGNATURE_BUCKETS = 8
#: Groups with fewer shards than this take the per-shard path: they are
#: too small to amortize a stacked factorization.
MIN_GROUP_SHARDS = 2
#: A pack is repacked when its active fraction drops to (or below) this;
#: each repack at most halves the stack, so total ride-along waste stays
#: bounded.
REPACK_FRACTION = 0.5
#: Sweeps a pack must run before it may be repacked.  Restacking costs a
#: fresh factorization (milliseconds of sparse-assembly overhead) while a
#: ride-along sweep over frozen entries costs nanoseconds per entry, so
#: repacking only pays off for long-tail groups — short-lived groups
#: finish in their original stack.
REPACK_INTERVAL = 250


def shard_signature(shard) -> Tuple[str, int]:
    """Structural signature ``(kind, size_bucket)`` of one shard.

    ``kind`` is ``"chain"`` for pure-chain shards (no E rows, so H = I
    and the stacked top solve is a diagonal scaling) and ``"coupled"``
    for shards tied by multi-row consistency rows.
    """
    kind = "chain" if len(shard.e_rows) == 0 else "coupled"
    size = shard.num_variables + shard.num_constraints
    return kind, min(int(size).bit_length(), SIGNATURE_BUCKETS)


def group_shards(shards) -> Dict[Tuple[str, int], List]:
    """Group shards by signature, preserving shard order within groups."""
    groups: Dict[Tuple[str, int], List] = {}
    for shard in shards:
        groups.setdefault(shard_signature(shard), []).append(shard)
    return groups


def _segments(offsets: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """The nonempty mask (None when no segment is empty) and the
    ``reduceat`` starts of the contiguous segments ``offsets`` bounds
    (one more entry than segments).

    Because the segments tile the array, dropping the empty ones keeps
    every nonempty segment's boundaries.
    """
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    if len(starts) and nonempty.all():
        return None, starts
    return nonempty, starts[nonempty]


def _segment_max(
    values: np.ndarray, segments: Tuple[Optional[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Per-segment maximum over :func:`_segments`; empty segments yield
    0.0."""
    nonempty, starts = segments
    if nonempty is None:
        return np.maximum.reduceat(values, starts)
    out = np.zeros(len(nonempty))
    if len(starts):
        out[nonempty] = np.maximum.reduceat(values, starts)
    return out


class _GroupPack:
    """One signature group's stacked state and vectorized sweep loop."""

    def __init__(
        self,
        source,
        shards: List,
        opts: MMSIMOptions,
        label: str,
        s0: Optional[np.ndarray],
        z0: Optional[np.ndarray],
        n_global: int,
    ) -> None:
        self.source = source
        self.opts = opts
        self.label = label
        self.gamma = opts.gamma
        self.results: Dict[int, LCPResult] = {}
        self.swept_entries = 0
        self.wasted_entries = 0
        G = len(shards)
        # Per-shard iteration state (survives repacks).
        omega = np.full(G, opts.damping)
        checkpoint = np.full(G, np.nan)
        rescued = np.zeros(G, dtype=bool)
        self._commit(shards, None, omega, checkpoint, rescued)
        # Seed from the committed stack (reuses its LCP for the z0 path
        # instead of slicing the blocks a second time).
        self.s = self._initial_state(shards, s0, z0, n_global)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _commit(self, shards, s_init, omega, checkpoint, rescued) -> None:
        """Stack *shards* and reset the pack state around them; raises
        :class:`StackDeclined` before any state is committed when the
        stacked kernels decline (probe-verification failure)."""
        self.splitting, self.lcp = self.source.stack(shards)
        self.shards = list(shards)
        self.top_sizes = np.array(
            [sh.num_variables for sh in shards], dtype=np.intp
        )
        self.bot_sizes = np.array(
            [sh.num_constraints for sh in shards], dtype=np.intp
        )
        self.top_off = np.concatenate([[0], np.cumsum(self.top_sizes)])
        self.bot_off = np.concatenate([[0], np.cumsum(self.bot_sizes)])
        self.top_seg = _segments(self.top_off)
        self.bot_seg = _segments(self.bot_off)
        self.N = int(self.top_off[-1])
        self.M = int(self.bot_off[-1])
        self.gq = self.gamma * self.lcp.q
        self.omega = omega
        self.checkpoint = checkpoint
        self.rescued = rescued
        self.active = np.ones(len(shards), dtype=bool)
        self.inactive_entries = 0
        self._cand_key = None
        self._cand_streak = 0
        self._cand_sub = None
        self._any_damped = bool(np.any(omega != 1.0))
        self._refresh_omega_entry()
        self.s = s_init

    def _refresh_omega_entry(self) -> None:
        if self._any_damped:
            self.omega_entry = np.concatenate([
                np.repeat(self.omega, self.top_sizes),
                np.repeat(self.omega, self.bot_sizes),
            ])
        else:
            self.omega_entry = None

    def _initial_state(self, shards, s0, z0, n_global) -> np.ndarray:
        """Stacked s⁰, matching the per-shard seeding exactly."""
        size = sum(sh.num_variables + sh.num_constraints for sh in shards)
        if s0 is None and z0 is None:
            return np.zeros(size)
        top = np.concatenate([sh.variables for sh in shards])
        bot = n_global + np.concatenate([sh.b_rows for sh in shards])
        if s0 is not None:
            return np.concatenate([s0[top], s0[bot]]).astype(float)
        # z0 path needs the stacked LCP for w = Az + q; the committed
        # stack's LCP was sliced from the same deterministic indices, so
        # the seed matches the per-shard warm start bitwise.
        z0_g = np.concatenate([z0[top], z0[bot]]).astype(float)
        return warm_start_from_z(self.lcp, z0_g, self.gamma)

    # ------------------------------------------------------------------
    # Per-shard bookkeeping
    # ------------------------------------------------------------------
    def _slices(self, j: int) -> Tuple[slice, slice]:
        return (
            slice(self.top_off[j], self.top_off[j + 1]),
            slice(self.N + self.bot_off[j], self.N + self.bot_off[j + 1]),
        )

    def _all_residuals(self, z: np.ndarray) -> np.ndarray:
        """Every shard's KKT natural residual at the stacked z.

        One matvec over the whole stack — each shard's rows only touch
        its own columns, so each per-shard segment of ``Az + q``
        accumulates exactly as the shard's own ``lcp.natural_residual``
        would (same values, same per-row order), and the segment maxima
        are the per-shard inf-norms, bit for bit.
        """
        w = self.lcp.A @ z + self.lcp.q
        r = np.minimum(z, w)
        np.abs(r, out=r)
        return np.maximum(
            _segment_max(r[: self.N], self.top_seg),
            _segment_max(r[self.N:], self.bot_seg),
        )

    def _candidate_residuals(
        self, cand: np.ndarray, z: np.ndarray
    ) -> np.ndarray:
        """Natural residuals of the candidate shards only, at the
        stacked z; entry i corresponds to ``np.where(cand)[0][i]``.

        A shard can sit in the candidate state (step below tol, residual
        still above ``residual_tol``) for thousands of sweeps.  A
        churning candidate set is audited with one cheap full-stack
        matvec; a set that persists earns a row-sliced sub-system
        (sparse fancy indexing is too expensive to rebuild every sweep)
        so the long tail audits only the pending shards' rows.  Row
        slicing keeps every row's stored entry order, so the sub-matvec
        accumulates bit-identically to the full one (and to each shard's
        own ``natural_residual``).
        """
        key = cand.tobytes()
        if key == self._cand_key:
            self._cand_streak += 1
        else:
            self._cand_key = key
            self._cand_streak = 0
            self._cand_sub = None
        if self._cand_streak < 3:
            return self._all_residuals(z)[cand]
        if self._cand_sub is None:
            rows = []
            sizes = []
            for j in np.where(cand)[0]:
                t, b = self._slices(j)
                rows.append(np.arange(t.start, t.stop))
                rows.append(np.arange(b.start, b.stop))
                sizes.append((t.stop - t.start) + (b.stop - b.start))
            row_idx = np.concatenate(rows)
            self._cand_sub = (
                row_idx,
                self.lcp.A[row_idx],
                self.lcp.q[row_idx],
                _segments(np.concatenate([[0], np.cumsum(sizes)])),
            )
        row_idx, A_sub, q_sub, segments = self._cand_sub
        w = A_sub @ z + q_sub
        r = np.minimum(z[row_idx], w)
        np.abs(r, out=r)
        return _segment_max(r, segments)

    def _finish(
        self, j: int, z: np.ndarray, k: int, converged: bool, residual: float
    ) -> None:
        shard = self.shards[j]
        t, b = self._slices(j)
        z_s = np.concatenate([z[t], z[b]])
        message = "" if converged else "max iterations reached"
        if self.rescued[j]:
            message = (
                message
                + f"; stall rescued with damping {self.omega[j]:g}"
            ).lstrip("; ")
        self.results[shard.index] = LCPResult(
            z=z_s,
            converged=converged,
            iterations=k,
            residual=float(residual),
            solver="mmsim",
            message=message,
        )

    def _repack(self, z: np.ndarray) -> Optional[np.ndarray]:
        """Restack the still-active shards; returns the new z (the new
        z_prev for the next sweep) or None when the repack was declined."""
        keep = np.where(self.active)[0]
        shards = [self.shards[j] for j in keep]
        segs_s = []
        segs_z = []
        for vec, segs in ((self.s, segs_s), (z, segs_z)):
            for j in keep:
                t, _ = self._slices(j)
                segs.append(vec[t])
            for j in keep:
                _, b = self._slices(j)
                segs.append(vec[b])
        s_new = np.concatenate(segs_s)
        z_new = np.concatenate(segs_z)
        omega = self.omega[keep]
        checkpoint = self.checkpoint[keep]
        rescued = self.rescued[keep]
        try:
            self._commit(shards, s_new, omega, checkpoint, rescued)
        except StackDeclined:
            # Same blocks just passed verification at the initial pack;
            # if a repack somehow declines, keep sweeping the old stack.
            return None
        return z_new

    # ------------------------------------------------------------------
    # The batched sweep
    # ------------------------------------------------------------------
    def solve(self) -> Dict[int, LCPResult]:
        """The batched sweep: the drive of :func:`repro.lcp.mmsim.mmsim_solve`
        over the stacked state.

        Each step runs ``span`` sweeps through
        :class:`~repro.kernels.reference.ReferenceSweepRunner`:
        ``span − 1`` blind, a ``z`` recomputation at the penultimate
        iterate, one measured sweep, so every convergence decision sees
        a true single-iteration z-step.  ``span`` ramps geometrically up
        to ``opts.block``, is clamped to the budget and, while any shard
        remains rescue-eligible, to the next ``stall_window`` multiple,
        so the per-shard rescue samples its checkpoints at the same
        iterates at any block length.  Freeze/repack/rescue bookkeeping
        happens at step boundaries, so entry accounting is exact.
        """
        opts = self.opts
        gamma = self.gamma
        block = opts.block
        emit = opts.telemetry.emit if opts.telemetry is not None else None
        runner = ReferenceSweepRunner(self.splitting)
        s = self.s
        z_prev = (np.abs(s) + s) / gamma
        # z and z_prev swap between two buffers (new ones on a repack); z
        # comes from the runner's |s| of the iterate it returned.
        z_spare = np.empty_like(z_prev)
        last_pack_k = 0
        next_rescue = opts.stall_window
        ramp = 1
        k = 0
        while k < opts.max_iterations:
            # A one-sweep step always fits the budget and the rescue
            # schedule, so the eligibility test runs only for blocks.
            span = ramp
            if ramp > 1:
                span = min(ramp, opts.max_iterations - k)
                if opts.auto_damping and bool(
                    (self.active & (self.omega > opts.min_damping)).any()
                ):
                    span = min(span, next_rescue - k)
                if span > 1:
                    s = runner.run(s, span - 1, self.gq, self.omega_entry)
                    np.add(runner.s_abs, s, out=z_prev)
                    z_prev /= gamma
            if ramp < block:
                ramp = min(2 * ramp, block)
            self.swept_entries += span * (self.N + self.M)
            self.wasted_entries += span * self.inactive_entries
            s = runner.run(s, 1, self.gq, self.omega_entry)
            k += span
            z = np.add(runner.s_abs, s, out=z_spare)
            z /= gamma
            np.subtract(z, z_prev, out=z_prev)
            np.abs(z_prev, out=z_prev)
            steps = np.maximum(
                _segment_max(z_prev[: self.N], self.top_seg),
                _segment_max(z_prev[self.N:], self.bot_seg),
            )
            z_spare, z_prev = z_prev, z
            cand = self.active & (steps < opts.tol)
            if cand.any():
                cand_idx = np.where(cand)[0]
                residuals = self._candidate_residuals(cand, z)
                if opts.residual_tol is not None:
                    passed = residuals <= opts.residual_tol
                else:
                    passed = np.ones(len(cand_idx), dtype=bool)
                for j, res in zip(cand_idx[passed], residuals[passed]):
                    self._finish(j, z, k, converged=True, residual=res)
                    self.active[j] = False
                    self.inactive_entries += int(
                        self.top_sizes[j] + self.bot_sizes[j]
                    )
            active_count = int(self.active.sum())
            if emit is not None:
                emit(
                    "mmsim_batch", "iteration",
                    group=self.label, iteration=k, active=active_count,
                    step=float(steps[self.active].max())
                    if active_count else 0.0,
                )
            if active_count == 0:
                break
            # Per-shard stall rescue, on the per-shard schedule (see
            # repro.lcp.mmsim — same gate, same escalation arithmetic).
            if opts.auto_damping and k >= next_rescue:
                eligible = self.active & (self.omega > opts.min_damping)
                if eligible.any():
                    fire = (
                        eligible
                        & ~np.isnan(self.checkpoint)
                        & (steps >= 0.9 * self.checkpoint)
                    )
                    if fire.any():
                        self.omega[fire] = np.maximum(
                            self.omega[fire] * opts.rescue_damping,
                            opts.min_damping,
                        )
                        self.rescued[fire] = True
                        self._any_damped = True
                        self._refresh_omega_entry()
                        if emit is not None:
                            emit(
                                "mmsim_batch", "stall_rescue",
                                group=self.label, iteration=k,
                                shards=int(fire.sum()),
                            )
                    self.checkpoint[eligible] = steps[eligible]
                next_rescue = (
                    k // opts.stall_window + 1
                ) * opts.stall_window
            if (
                k < opts.max_iterations
                and k - last_pack_k >= REPACK_INTERVAL
                and active_count <= REPACK_FRACTION * len(self.shards)
            ):
                self.s = s
                z_new = self._repack(z_prev)
                if z_new is not None:
                    s = self.s
                    z_prev = z_new
                    z_spare = np.empty_like(z_new)
                    last_pack_k = k
                    runner = ReferenceSweepRunner(self.splitting)
        # Shards still active at max_iterations: not converged, final
        # residual at the last iterate.
        leftovers = np.where(self.active)[0]
        if len(leftovers):
            residuals = self._all_residuals(z_prev)
            for j in leftovers:
                self._finish(
                    j, z_prev, opts.max_iterations,
                    converged=False, residual=residuals[j],
                )
        if emit is not None:
            emit(
                "mmsim_batch", "done",
                group=self.label, shards=len(self.results),
                iterations=k,
                converged=sum(
                    1 for r in self.results.values() if r.converged
                ),
            )
        return self.results


def solve_shards_batched(
    sharded,
    options: Optional[MMSIMOptions] = None,
    s0: Optional[np.ndarray] = None,
    z0: Optional[np.ndarray] = None,
) -> Dict[int, LCPResult]:
    """Solve eligible shard groups through the stacked vectorized MMSIM.

    Returns ``{shard.index: LCPResult}`` for every shard solved by the
    engine; shards it declines (small groups, kernel fallbacks, a
    missing :class:`~repro.core.sharding.ShardSource`) are simply absent
    and the caller solves them per-shard.  Results are bit-identical to
    the per-shard path (see the module docstring for why).
    """
    opts = options or MMSIMOptions()
    source = getattr(sharded, "source", None)
    results: Dict[int, LCPResult] = {}
    if source is None:
        return results
    groups = group_shards(sharded.shards)
    tel = current_session()
    batched_groups = 0
    batched_shards = 0
    fallback_shards = 0
    swept = 0
    wasted = 0
    for sig, shards in groups.items():
        if len(shards) < MIN_GROUP_SHARDS:
            fallback_shards += len(shards)
            continue
        label = f"{sig[0]}/{sig[1]}"
        try:
            pack = _GroupPack(
                source, shards, opts, label, s0, z0, n_global=sharded.n
            )
            results.update(pack.solve())
        except StackDeclined as exc:
            fallback_shards += len(shards)
            if tel.enabled and tel.solver_events is not None:
                tel.solver_events.emit(
                    "mmsim_batch", "group_fallback",
                    group=label, shards=len(shards), reason=str(exc),
                )
            continue
        batched_groups += 1
        batched_shards += len(shards)
        swept += pack.swept_entries
        wasted += pack.wasted_entries
    if tel.enabled:
        tel.metrics.gauge("batch.groups").set(batched_groups)
        tel.metrics.counter("batch.shards").inc(batched_shards)
        if fallback_shards:
            tel.metrics.counter("batch.fallback_shards").inc(fallback_shards)
        tel.metrics.gauge("batch.padding_waste").set(
            wasted / swept if swept else 0.0
        )
    return results
