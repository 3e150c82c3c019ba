"""Component sharding of the legalization KKT LCP (the perf layer).

The KKT matrix ``A = [[H, −Bᵀ], [B, 0]]`` couples two variables only when
some B row (an adjacent-pair non-overlap constraint) or E row (a multi-row
consistency tie) touches both.  Connected components of that
variable-coupling graph therefore split the LCP into *exactly* independent
blocks: under the component permutation A is block diagonal, so solving
each component's sub-LCP and scattering the pieces back reproduces the
monolithic solution (the LCP of an SPD-KKT system has a unique solution).
On a real design one component is one cluster of row chains glued by
multi-row cells — placement locality keeps them small and numerous.

Why shard:

* **smaller systems** factorize faster and the per-sweep matvecs touch
  less memory;
* **independent stopping** — each shard's MMSIM stops the moment *that
  shard* converges, instead of every variable sweeping until the globally
  slowest cluster finishes (iteration counts across components routinely
  differ by an order of magnitude).

Shards run one after another in the caller's thread: each sweep is a few
small sparse solves and matvecs, too little work for a thread pool to
pay for itself.

Tiny components (single cells in otherwise-empty rows) are batched
together into shards of at least ``min_shard_variables`` variables so the
Python-level sweep overhead stays amortized; batching unions of
components is still exact, it only couples their stopping decision.

The Eq. (16) splitting is set up once per design, not once per shard:
the eager build permutes H, B and E into shard order in one slice
(:meth:`ShardSource.stack`), builds one
:class:`~repro.core.splitting.LegalizationSplitting` and one KKT LCP
over that block-diagonal system, and gives every shard row-range blocks
of them (:meth:`LegalizationSplitting.block
<repro.core.splitting.LegalizationSplitting.block>`,
:func:`~repro.lcp.problem.kkt_block`).  Each B or E row touches only its
own shard's columns, so a block keeps every value and every row's entry
order, and ``pttrf`` restarts exactly at the zero couplings between
shards: the blocks equal a per-shard build bit for bit, without its
dozens of scipy constructor calls per shard.  A design whose stacked
kernels the probe gate declines, or a run with a setup-reuse cache
(which keeps its setups per shard), builds each shard on its own.

For a stack of several designs (:mod:`repro.core.multi`),
:mod:`repro.core.batched` keeps the components as *micro-shards*
(``min_shard_variables=1``) and sweeps whole groups of them through one
stacked vectorized MMSIM — per-component stopping without per-component
Python overhead.  To support it, shards can be built *lazily*: they
carry only their index sets plus a reference to the global matrices
(:class:`ShardSource`), and materialize their own
:class:`~repro.lcp.problem.LCP` / splitting on first access — the
batched engine slices whole groups at once and only shards peeled out by
the resilience ladder ever materialize individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.core.resilience import (
    ResilienceConfig,
    ShardEscalation,
    record_escalations,
    solve_shard_resilient,
)
from repro.core.setup_cache import ReuseCache, index_key, scalar_setup_key
from repro.core.splitting import LegalizationSplitting, SplittingParameters
from repro.lcp.mmsim import MMSIMOptions
from repro.lcp.problem import LCP, LCPResult, kkt_block, make_kkt_lcp
from repro.telemetry import active_tracer


class StackDeclined(Exception):
    """The probe gate declined a stacked splitting's specialized kernels."""


@dataclass
class ShardSource:
    """The global QP blocks that shards and stacks of shards are sliced
    from."""

    H: sp.csr_matrix
    p: np.ndarray
    B: sp.csr_matrix
    b: np.ndarray
    E: sp.csr_matrix
    lam: float
    params: Optional[SplittingParameters]

    def slice_blocks(
        self, vi: np.ndarray, bi: np.ndarray, ei: np.ndarray
    ) -> Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """``(H, B, E)`` restricted to one shard's (or group's) indices.

        Relative order within the slice matches the global order, so the
        result of slicing a concatenation of shards is exactly the
        block-diagonal stacking of the per-shard slices (each B/E row
        only touches its own shard's columns).
        """
        nv = len(vi)
        Hs = self.H[vi][:, vi]
        Bs = self.B[bi][:, vi] if len(bi) else sp.csr_matrix((0, nv))
        Es = self.E[ei][:, vi] if len(ei) else sp.csr_matrix((0, nv))
        return Hs, Bs, Es

    def build(
        self, vi: np.ndarray, bi: np.ndarray, ei: np.ndarray
    ) -> Tuple[LegalizationSplitting, LCP]:
        """The splitting and KKT LCP of the system restricted to these
        indices, both from one :meth:`slice_blocks` call."""
        Hs, Bs, Es = self.slice_blocks(vi, bi, ei)
        splitting = LegalizationSplitting(
            Hs, Bs, Es, self.lam, params=self.params
        )
        return splitting, make_kkt_lcp(Hs, self.p[vi], Bs, self.b[bi])

    def stack(
        self, shards: List["Shard"]
    ) -> Tuple[LegalizationSplitting, LCP]:
        """One splitting and KKT LCP over *shards* stacked in order.

        The blocks come from one :meth:`slice_blocks` permutation, so the
        stacked system is block diagonal over the shards.  Raises
        :class:`StackDeclined` when the probe gate leaves a kernel with
        no per-shard block form: a top kernel other than ``woodbury``, or
        a bottom one other than ``pttrs``, ``scalar`` or ``none``.
        """
        splitting, lcp = self.build(
            np.concatenate([sh.variables for sh in shards]),
            np.concatenate([sh.b_rows for sh in shards]),
            np.concatenate([sh.e_rows for sh in shards]),
        )
        if splitting.top_kernel != "woodbury":
            raise StackDeclined("stacked top kernel fell back to SuperLU")
        if splitting.bottom_kernel not in ("pttrs", "scalar", "none"):
            raise StackDeclined(
                f"stacked bottom kernel is {splitting.bottom_kernel}"
            )
        return splitting, lcp


@dataclass
class Shard:
    """One independent sub-LCP: a batch of coupling-graph components.

    ``lcp`` and ``splitting`` are set at build time (blocks of one
    design-wide build, see :func:`build_shards`) unless
    ``build_shards(..., lazy=True)``; a lazy shard materializes both
    from one :meth:`ShardSource.build` on first access to either, so the
    batched engine never pays per-shard construction for shards it
    solves in a stacked group.
    """

    index: int
    variables: np.ndarray     # global variable ids (ascending)
    b_rows: np.ndarray        # global B-row ids (ascending)
    e_rows: np.ndarray        # global E-row ids (ascending)
    source: Optional[ShardSource] = None
    _lcp: Optional[LCP] = None
    _splitting: Optional[LegalizationSplitting] = None

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.b_rows)

    @property
    def lcp(self) -> LCP:
        if self._lcp is None:
            self._materialize()
        return self._lcp

    @property
    def splitting(self) -> LegalizationSplitting:
        if self._splitting is None:
            self._materialize()
        return self._splitting

    def _materialize(self) -> None:
        if self.source is None:
            raise RuntimeError("lazy shard has no ShardSource")
        self._splitting, self._lcp = self.source.build(
            self.variables, self.b_rows, self.e_rows
        )


@dataclass
class ShardedKKT:
    """The legalization KKT LCP, partitioned into independent shards."""

    n: int                    # total primal variables
    m: int                    # total constraints
    #: Coupling-graph components before batching (1 for the one-shard
    #: partition, which runs no component pass).
    num_components: int
    source: Optional[ShardSource] = None
    shards: List[Shard] = field(default_factory=list)
    #: Per-variable coupling-component labels; None for the one-shard
    #: partition.
    labels: Optional[np.ndarray] = None

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def coupling_components(
    B: sp.spmatrix, E: sp.spmatrix, n: int
) -> Tuple[int, np.ndarray]:
    """Connected components of the variable-coupling graph.

    Vertices are the n QP variables; edges come from the nonzero pattern
    of B (adjacent-pair constraints) and E (multi-row ties).  Returns
    ``(num_components, labels)`` with ``labels[v]`` the component of
    variable v.
    """
    inc = sp.vstack([sp.csr_matrix(B), sp.csr_matrix(E)]).tocsr()
    if inc.shape[0] == 0 or inc.nnz == 0:
        return n, np.arange(n)
    inc.data = np.ones_like(inc.data)
    adjacency = (inc.T @ inc).tocsr()
    return connected_components(adjacency, directed=False)


def _rows_to_components(M: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Component of each matrix row, via its first nonzero column.

    Every nonzero column of a row shares one component by construction
    (the row itself is a coupling edge).  Structurally empty rows — which
    the QP builder never emits — are routed to component 0.
    """
    M = sp.csr_matrix(M)
    row_nnz = np.diff(M.indptr)
    comps = np.zeros(M.shape[0], dtype=labels.dtype)
    nonempty = row_nnz > 0
    comps[nonempty] = labels[M.indices[M.indptr[:-1][nonempty]]]
    return comps


def _batch_components(
    labels: np.ndarray,
    num_comp: int,
    min_shard_variables: int,
    comp_group: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Greedily merge components (in first-variable order) into shards of
    at least ``min_shard_variables`` variables.  Returns
    ``(shard_of_component, num_shards)``.

    ``comp_group`` (one label per component, e.g. the fence group) makes
    merging group-aware: a shard never mixes components of different
    groups, so each fence region always legalizes as its own shard set.
    """
    n = len(labels)
    sizes = np.bincount(labels, minlength=num_comp)
    first_var = np.full(num_comp, n, dtype=np.intp)
    np.minimum.at(first_var, labels, np.arange(n))
    order = np.argsort(first_var, kind="stable")
    shard_of_comp = np.zeros(num_comp, dtype=np.intp)
    shard = 0
    acc = 0
    group = None
    for comp in order:
        comp_g = comp_group[comp] if comp_group is not None else None
        if acc > 0 and (acc >= min_shard_variables or comp_g != group):
            shard += 1
            acc = 0
        group = comp_g
        shard_of_comp[comp] = shard
        acc += sizes[comp]
    return shard_of_comp, shard + 1


def build_shards(
    H: sp.spmatrix,
    p: np.ndarray,
    B: sp.spmatrix,
    b: np.ndarray,
    E: sp.spmatrix,
    lam: float,
    params: Optional[SplittingParameters] = None,
    min_shard_variables: int = 256,
    lazy: bool = False,
    reuse: Optional[ReuseCache] = None,
    var_groups: Optional[np.ndarray] = None,
    single_shard: bool = False,
) -> ShardedKKT:
    """Partition the legalization KKT LCP into independent shards.

    ``var_groups`` (a per-variable group label, e.g. the fence index with
    −1 for unfenced) keeps shard batching from merging components across
    group boundaries; within a coupling component the label is uniform by
    construction (no constraint couples across a fence).

    Each shard carries its own :class:`LCP` and prefactorized
    :class:`LegalizationSplitting`; relative variable and constraint order
    within a shard matches the global order, so every shard's B keeps the
    chain-adjacency structure the tridiagonal Schur approximation relies
    on.  Eagerly (no ``lazy``, no ``reuse``), both are row-range blocks
    of one design-wide build over the shards stacked in order, equal bit
    for bit to a per-shard build; when the stacked probe gate declines a
    kernel (see :meth:`ShardSource.stack`), every shard is built from
    its own slices instead.

    With ``lazy=True`` only the index sets are computed here; per-shard
    matrices materialize on first attribute access (the batched engine's
    mode of operation on cross-design stacks — it slices whole groups at
    once instead), and ``reuse`` is not consulted.

    With ``reuse`` set (a :class:`~repro.core.setup_cache.ReuseCache`
    carried over from a previous run of the same design), a
    ``setup_reuse`` span decides whether the run is *trusted* (``H``,
    ``B``, ``E`` bitwise identical to the previous run's, scalars
    equal).  In a trusted run a shard whose index key the previous run
    also built takes that splitting and KKT matrix bit-identically
    instead of being sliced and refactorized; every other shard builds
    on its own.  The run's setups then replace the cache's.

    ``single_shard=True`` (``LegalizerConfig(shard=False)``) puts every
    variable in one shard in global order: no coupling-component pass and
    no split at fence groups.
    """
    H = sp.csr_matrix(H)
    B = sp.csr_matrix(B)
    E = sp.csr_matrix(E)
    p = np.asarray(p, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n = H.shape[0]
    m = B.shape[0]

    if single_shard:
        num_comp, labels, num_shards = 1, None, 1
        var_shard = np.zeros(n, dtype=np.intp)
        b_shard = np.zeros(m, dtype=np.intp)
        e_shard = np.zeros(E.shape[0], dtype=np.intp)
    else:
        num_comp, labels = coupling_components(B, E, n)
        comp_group = None
        if var_groups is not None:
            comp_group = np.zeros(num_comp, dtype=np.intp)
            comp_group[labels] = np.asarray(var_groups, dtype=np.intp)
        shard_of_comp, num_shards = _batch_components(
            labels, num_comp, min_shard_variables, comp_group=comp_group
        )
        var_shard = shard_of_comp[labels]
        b_shard = shard_of_comp[_rows_to_components(B, labels)]
        e_shard = shard_of_comp[_rows_to_components(E, labels)]

    source = ShardSource(H=H, p=p, B=B, b=b, E=E, lam=lam, params=params)
    sharded = ShardedKKT(
        n=n, m=m, num_components=num_comp, source=source, labels=labels
    )
    var_order = np.argsort(var_shard, kind="stable")
    var_starts = np.searchsorted(var_shard[var_order], np.arange(num_shards + 1))
    b_order = np.argsort(b_shard, kind="stable")
    b_starts = np.searchsorted(b_shard[b_order], np.arange(num_shards + 1))
    e_order = np.argsort(e_shard, kind="stable")
    e_starts = np.searchsorted(e_shard[e_order], np.arange(num_shards + 1))
    for si in range(num_shards):
        vi = np.sort(var_order[var_starts[si]:var_starts[si + 1]])
        bi = np.sort(b_order[b_starts[si]:b_starts[si + 1]])
        ei = np.sort(e_order[e_starts[si]:e_starts[si + 1]])
        sharded.shards.append(
            Shard(index=si, variables=vi, b_rows=bi, e_rows=ei, source=source)
        )
    if lazy:
        return sharded
    if reuse is not None:
        _reuse_setups(sharded, reuse)
    elif not _attach_blocks(sharded):
        for shard in sharded.shards:
            shard._materialize()
    return sharded


def _reuse_setups(sharded: ShardedKKT, reuse: ReuseCache) -> None:
    """Give every shard its setup through *reuse*: the previous run's
    under the same index key when the run is trusted, its own build
    otherwise; then keep this run's setups as the cache's generation."""
    src = sharded.source
    scalar_key = scalar_setup_key(src.lam, src.params)
    with active_tracer().span("setup_reuse") as span:
        trusted = reuse.begin_run(src.H, src.B, src.E, scalar_key)
        span.set_attribute("trusted", trusted)
    setups = {}
    for shard in sharded.shards:
        key = index_key(shard.variables, shard.b_rows, shard.e_rows)
        previous = reuse.setups.get(key)
        if trusted and previous is not None:
            # q is the only right-hand side; it always rebuilds fresh.
            shard._splitting, A = previous
            q = np.concatenate(
                [src.p[shard.variables], -src.b[shard.b_rows]]
            )
            shard._lcp = LCP(A=A, q=q)
            reuse.record("hit")
        else:
            shard._materialize()
            reuse.record("miss" if previous is None else "stale")
        setups[key] = (shard.splitting, shard.lcp.A)
    reuse.end_run(src.H, src.B, src.E, scalar_key, setups)


def _attach_blocks(sharded: ShardedKKT) -> bool:
    """Give every shard its splitting and KKT LCP as blocks of one
    design-wide build.  False, with nothing attached, when the stacked
    kernels are declined, or when a lone shard's own build already is
    the design-wide one."""
    source = sharded.source
    if sharded.num_shards == 1:
        return False
    try:
        splitting, lcp = source.stack(sharded.shards)
    except StackDeclined:
        return False
    v0 = c0 = e0 = 0
    for shard in sharded.shards:
        rows = slice(v0, v0 + shard.num_variables)
        cons = slice(c0, c0 + shard.num_constraints)
        ties = slice(e0, e0 + len(shard.e_rows))
        shard._splitting = splitting.block(rows, cons, ties)
        shard._lcp = kkt_block(lcp, splitting.n, rows, cons)
        v0, c0, e0 = rows.stop, cons.stop, ties.stop
    return True


def shard_legalization_qp(
    legal_qp,
    params: Optional[SplittingParameters] = None,
    min_shard_variables: int = 256,
    lazy: bool = False,
    reuse: Optional[ReuseCache] = None,
    var_groups: Optional[np.ndarray] = None,
    single_shard: bool = False,
) -> ShardedKKT:
    """Shard a :class:`repro.core.qp_builder.LegalizationQP`.

    When *var_groups* is not given, the QP's own per-variable fence
    groups (if any) are used, so fenced designs shard group-aware by
    default.
    """
    qp = legal_qp.qp
    if var_groups is None:
        var_groups = getattr(legal_qp, "var_groups", None)
    return build_shards(
        qp.H,
        qp.p,
        qp.B,
        qp.b,
        legal_qp.E,
        legal_qp.lam,
        params=params,
        min_shard_variables=min_shard_variables,
        lazy=lazy,
        reuse=reuse,
        var_groups=var_groups,
        single_shard=single_shard,
    )


def slice_shard_vector(
    vec: Optional[np.ndarray], shard: Shard, n: int
) -> Optional[np.ndarray]:
    """Slice a global KKT-space vector (length n + m) down to one shard."""
    if vec is None:
        return None
    return np.concatenate([vec[shard.variables], vec[n + shard.b_rows]])


def solve_sharded(
    sharded: ShardedKKT,
    options: Optional[MMSIMOptions] = None,
    s0: Optional[np.ndarray] = None,
    config: Optional[ResilienceConfig] = None,
    z0: Optional[np.ndarray] = None,
    batch: bool = False,
) -> Tuple[LCPResult, List[ShardEscalation]]:
    """Solve every shard, in shard order, down the solver ladder and
    scatter back one global solution.

    ``s0`` is the *global* warm start (length n + m), sliced per shard;
    ``z0`` is a global previous *solution* instead (see
    :func:`repro.lcp.mmsim.warm_start_from_z`; ``s0`` wins when both are
    given).

    Each shard runs :func:`repro.core.resilience.solve_shard_resilient`
    under ``config`` (default :class:`ResilienceConfig`): a shard whose
    primary MMSIM converges is untouched, a failing one walks the ladder.

    ``batch=True`` enables the stacked micro-shard engine
    (:mod:`repro.core.batched`, used for cross-design stacks): it groups
    shards by structural signature and sweeps each group through one
    vectorized MMSIM first; per-shard results are bit-identical to the
    per-shard path.  A converged batched result passes rung 1 without ever
    materializing the shard's own factorization, while a shard that
    failed inside its batch — or is fault-injected — walks the ladder on
    its own splitting.  Shards the engine declines (ineligible kernels,
    tiny groups) take the per-shard solve.

    Returns the aggregate :class:`LCPResult` plus one
    :class:`ShardEscalation` per shard that escalated, in shard order.
    The aggregate reports ``iterations`` as the maximum over shards of
    the primary (rung 1) MMSIM sweeps, whichever rung won (a fallback
    rung's own count stays in its escalation's attempts), ``residual``
    as the max shard residual (equal to the global natural residual, A
    being block diagonal), and ``converged`` only if every shard
    converged.
    """
    opts = options or MMSIMOptions()
    cfg = config or ResilienceConfig()
    n = sharded.n

    primary: Dict[int, LCPResult] = {}
    if batch and sharded.num_shards:
        from repro.core.batched import solve_shards_batched

        primary = solve_shards_batched(sharded, opts, s0=s0, z0=z0)

    escalations: List[ShardEscalation] = []

    def run(shard: Shard) -> Tuple[LCPResult, int]:
        """The shard's accepted result and its primary MMSIM sweeps."""
        pre = primary.get(shard.index)
        if (
            pre is not None
            and pre.converged
            and not cfg.should_fail(shard.index, "mmsim")
        ):
            # Rung 1 succeeded inside the batch; nothing to escalate and
            # no reason to build the shard's own LCP or splitting.
            return pre, pre.iterations
        result, escalation = solve_shard_resilient(
            shard.lcp,
            shard.splitting,
            opts,
            s0=slice_shard_vector(s0, shard, n),
            config=cfg,
            shard_index=shard.index,
            z0=slice_shard_vector(z0, shard, n) if s0 is None else None,
            primary_result=pre,
        )
        if escalation is None:
            return result, result.iterations
        escalations.append(escalation)
        return result, escalation.primary_iterations

    runs = [run(shard) for shard in sharded.shards]
    results = [result for result, _ in runs]

    z = np.zeros(n + sharded.m)
    for shard, res in zip(sharded.shards, results):
        z[shard.variables] = res.z[: shard.num_variables]
        z[n + shard.b_rows] = res.z[shard.num_variables :]

    converged = all(r.converged for r in results)
    stalled = sum(1 for r in results if not r.converged)
    rescued = sum(1 for r in results if "stall rescued" in r.message)
    notes = [] if converged else [f"{stalled} shard(s) hit max iterations"]
    if rescued:
        notes.append(f"stall rescued in {rescued} shard(s)")
    if escalations:
        solved = sum(1 for e in escalations if e.solved)
        notes.append(
            f"{len(escalations)} shard(s) escalated past mmsim "
            f"({solved} solved by fallbacks)"
        )
    record_escalations(escalations)
    return (
        LCPResult(
            z=z,
            converged=converged,
            iterations=max((sweeps for _, sweeps in runs), default=0),
            residual=max((r.residual for r in results), default=0.0),
            solver="mmsim",
            message="; ".join(notes),
        ),
        escalations,
    )
