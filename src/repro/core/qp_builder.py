"""Stage 3: assemble the relaxed legalization QP (paper's Problems (6)/(13)).

Variables are the subcell x positions, measured from the core's left edge
(so the paper's ``x >= 0`` bound is the left boundary constraint).  For
every chip row the per-row GP-x-ordered sequence of subcells yields one
non-overlap constraint per adjacent pair:

    x_j − x_l >= w_l        (j immediately right of l)

giving the B matrix with exactly two nonzeros (−1, +1) per row.  Multi-row
consistency enters through ``H = Q + λ EᵀE`` with Q = I (see
:mod:`repro.core.subcells` for E).

The right chip boundary is deliberately *not* constrained — that is the
paper's relaxation, repaired afterwards by the Tetris-like allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.subcells import SubcellModel
from repro.netlist.design import Design
from repro.qp.problem import QPProblem


@dataclass
class LegalizationQP:
    """The relaxed QP plus the bookkeeping needed to interpret its solution.

    Variables are ``y = x − x_origin − lower`` where ``lower[v]`` is the
    per-variable left-anchor offset (0 without fixed obstacles): the QP's
    ``y >= 0`` bound then encodes both the chip's left edge and every
    obstacle's right edge without adding rows to B.
    """

    qp: QPProblem
    E: sp.csr_matrix
    lam: float
    x_origin: float          # core.xl
    model: SubcellModel
    #: Per-variable lower offsets (len n); None materializes to zeros.
    lower: Optional[np.ndarray] = None
    #: Per-variable fence group (len n, −1 = unfenced); None when the
    #: design has no fences.  Sharding uses this to keep shards from
    #: mixing fence groups.
    var_groups: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.lower is None:
            self.lower = np.zeros(self.qp.num_variables)
        else:
            self.lower = np.asarray(self.lower, dtype=float).ravel()

    def to_positions(self, y: np.ndarray) -> np.ndarray:
        """Map solver variables back to shifted x coordinates."""
        return y + self.lower

    @property
    def num_variables(self) -> int:
        return self.qp.num_variables

    @property
    def num_constraints(self) -> int:
        return self.qp.num_constraints


def build_constraints(
    model: SubcellModel,
    right_boundary: Optional[float] = None,
    anchors: Optional[Dict[int, List[Tuple[float, float]]]] = None,
    x_origin: float = 0.0,
    var_groups: Optional[np.ndarray] = None,
    group_anchors: Optional[Dict[int, Dict[int, List[Tuple[float, float]]]]] = None,
) -> "tuple[sp.csr_matrix, np.ndarray, np.ndarray]":
    """Build B, b, and per-variable lower offsets from the row sequences.

    One row of B per adjacent pair (l, j) in each chip row:
    ``−1`` at l, ``+1`` at j, with right-hand side ``w_l``.

    ``anchors`` maps chip rows to sorted, disjoint fixed-obstacle intervals
    ``(start, end)`` in shifted coordinates.  Obstacles partition each
    row's sequence into segments.  Rather than adding constraint rows, the
    segment's left edge becomes a per-variable *lower offset*: with the
    substitution ``y = x − lower`` the QP's plain ``y >= 0`` bound encodes
    it, so B keeps the paper's pure two-nonzero structure (this matters —
    single-entry rows measurably break the MMSIM's contraction; see
    benchmarks/bench_ablation_boundary.py).  Segment right edges are
    *relaxed* exactly like the paper's chip edge and repaired by the
    Tetris stage, which honours obstacles.

    With ``right_boundary`` set, rows whose last segment fits also get the
    explicit ``−1`` boundary row of the exact-boundary extension.

    ``var_groups`` / ``group_anchors`` implement fence regions on top of
    the same machinery: ``var_groups[v]`` assigns every variable to a
    fence group (−1 = unfenced) and ``group_anchors[g][row]`` holds that
    group's obstacle intervals (the fence complement for members, the
    fence rects themselves for the unfenced group, both merged with the
    fixed-cell intervals).  Each row's sequence is partitioned *by group
    before* splitting at anchors, so no adjacency constraint ever couples
    cells across a fence boundary — the coupling graph falls apart into
    per-fence components by construction.
    """
    anchors = anchors or {}
    n = model.num_variables
    widths = model.width_array()
    targets = model.target_array(x_origin)
    # Multi-row cells are routed *jointly*: a segment decision made per row
    # could send a double's two subcells to conflicting segments (different
    # obstacle layouts in its rows), and the λ tie would then drag whole
    # clusters toward the conflict.  The joint lower (computed against the
    # union of the spanned rows' obstacles) steers every subcell into a
    # consistent position via its effective target.
    jl = _joint_lowers(
        model, anchors, x_origin,
        var_groups=var_groups, group_anchors=group_anchors,
    )

    # Parts: each row's sequence split by fence group (groups ascending),
    # in row order.  Each part's obstacles cut it into segments.
    num_rows = model.row_start.size - 1
    seq = model.row_vars
    rows = model.var_row[seq]
    maps, rank = _group_maps(anchors, group_anchors, var_groups, seq)
    if var_groups is not None:
        by_group = np.lexsort((rank, rows))
        seq, rows, rank = seq[by_group], rows[by_group], rank[by_group]
    key = rank * num_rows + rows
    opens = np.ones(n, dtype=bool)
    opens[1:] = key[1:] != key[:-1]
    part = np.cumsum(opens) - 1
    ptr, obs_lo, obs_hi = _obstacle_csr(maps, num_rows)
    first_obs = ptr[key[opens]]
    num_obs = ptr[key[opens] + 1] - first_obs
    seg_base = np.zeros(num_obs.size + 1, dtype=np.intp)
    np.cumsum(num_obs + 1, out=seg_base[1:])
    num_segs = int(seg_base[-1])
    seg_part = np.repeat(np.arange(num_obs.size), num_obs + 1)
    seg_index = np.arange(num_segs) - seg_base[seg_part]
    bounded = seg_index < num_obs[seg_part]
    closing = first_obs[seg_part] + seg_index
    seg_lo = np.zeros(num_segs)
    seg_lo[seg_index > 0] = obs_hi[closing[seg_index > 0] - 1]
    seg_hi = np.full(num_segs, np.inf)
    seg_hi[bounded] = obs_lo[closing[bounded]]

    seg_of_var = seg_base[part]
    if obs_lo.size:
        # Route each variable to the first segment of its part whose right
        # edge exceeds its effective target (the GP target raised to any
        # joint lower); a target equal to an edge routes rightward.
        effective = np.maximum(targets[seq], jl[seq])
        seg_of_var = seg_of_var + _edges_at_or_below(
            seg_hi[bounded], seg_part[bounded], effective, part
        )
        by_segment = np.argsort(seg_of_var, kind="stable")
        seq, seg_of_var = seq[by_segment], seg_of_var[by_segment]
    seg_start = np.zeros(num_segs + 1, dtype=np.intp)
    np.cumsum(np.bincount(seg_of_var, minlength=num_segs), out=seg_start[1:])
    w = widths[seq]

    # Cascade overflow rightward: a segment holding more total width than
    # it can ever fit would force its tail onto the obstacle (the relaxed
    # right edge); moving the tail into the next segment preserves the GP
    # ordering and lets the QP place it legally.  Only parts with a
    # segment that may overflow run the exact left-to-right pass; the
    # screen's relative slack of 1e-9 exceeds any difference between
    # summation orders, so a part it passes cannot overflow.
    capacity = seg_hi - seg_lo
    maybe_over = _segment_sums(w, seg_start) * (1 + 1e-9) > capacity + 1e-9
    for p in np.unique(seg_part[maybe_over]).tolist():
        _cascade(w, seg_start, capacity, seg_base[p], seg_base[p + 1] - 1)
    seg_count = np.diff(seg_start)

    # Every variable lives in exactly one segment.
    lower = np.zeros(n)
    lower[seq] = np.maximum(np.repeat(seg_lo, seg_count), jl[seq])

    # Interior segment right edges are relaxed like the chip edge
    # (obstacle-aware Tetris repairs any spill); only the explicit
    # exact-boundary extension emits a −1 row, on each part's last segment
    # if it fits.  Totals within 1e-9 (relative) of the limit are redone
    # left to right: only there can the summation order decide.
    bound = np.zeros(num_segs, dtype=bool)
    if right_boundary is not None:
        last = ~bounded & (seg_count > 0)
        limit = right_boundary + 1e-9
        total = _segment_sums(w, seg_start)
        near = last & (
            np.abs(seg_lo + total - limit)
            <= 1e-9 * (total + np.abs(seg_lo) + 1.0)
        )
        for s in np.flatnonzero(near).tolist():
            total[s] = _left_to_right_sum(w[seg_start[s]:seg_start[s + 1]])
        bound = last & (seg_lo + total <= limit)

    rows_of_seg = np.maximum(seg_count - 1, 0) + bound
    k = int(rows_of_seg.sum())
    if not k:
        return sp.csr_matrix((0, n)), np.zeros(0), lower
    # Global row index of each segment's first row, in emission order:
    # a segment's pair rows, then its boundary row.
    offsets = np.cumsum(rows_of_seg) - rows_of_seg
    seg_of_pos = np.repeat(np.arange(num_segs), seg_count)
    pair = np.flatnonzero(seg_of_pos[1:] == seg_of_pos[:-1])
    left, right = seq[pair], seq[pair + 1]
    pair_seg = seg_of_pos[pair]
    pair_rows = offsets[pair_seg] + (pair - seg_start[pair_seg])
    bound_segs = np.flatnonzero(bound)
    bound_rows = offsets[bound_segs] + seg_count[bound_segs] - 1
    bound_vars = seq[seg_start[bound_segs + 1] - 1]
    b = np.empty(k, dtype=float)
    b[pair_rows] = widths[left] + lower[left] - lower[right]
    if bound_segs.size:
        b[bound_rows] = widths[bound_vars] - (right_boundary - seg_lo[bound_segs])
    # Triplets per pair row stay (left, −1) then (right, +1), then the
    # boundary rows' single −1.
    cols_pair = np.empty(2 * pair.size, dtype=np.intp)
    cols_pair[0::2] = left
    cols_pair[1::2] = right
    B = sp.csr_matrix(
        (
            np.concatenate([
                np.tile([-1.0, 1.0], pair.size), np.full(bound_segs.size, -1.0)
            ]),
            (
                np.concatenate([np.repeat(pair_rows, 2), bound_rows]),
                np.concatenate([cols_pair, bound_vars]),
            ),
        ),
        shape=(k, n),
    )
    return B, b, lower


def _group_maps(anchors, group_anchors, var_groups, variables):
    """The obstacle maps in group order and each of *variables*' index
    into them (all 0 without fence groups)."""
    if var_groups is None:
        return [anchors], np.zeros(variables.size, dtype=np.intp)
    order = sorted(group_anchors)
    return (
        [group_anchors[g] for g in order],
        np.searchsorted(order, var_groups[variables]),
    )


def _obstacle_csr(maps, num_rows: int):
    """Flatten per-row interval maps into one CSR keyed by
    ``map index * num_rows + row``.

    Each key's intervals come out sorted as ``(start, end)`` tuples sort;
    rows outside ``[0, num_rows)`` hold no variables and are dropped.
    Returns ``(ptr, starts, ends)``.
    """
    keys, spans = [np.zeros(0, dtype=np.intp)], [np.zeros((0, 2))]
    for g, per_row in enumerate(maps):
        for row, intervals in per_row.items():
            if len(intervals) and 0 <= row < num_rows:
                keys.append(np.full(len(intervals), g * num_rows + row))
                spans.append(np.asarray(intervals, dtype=float).reshape(-1, 2))
    key = np.concatenate(keys)
    start, end = np.concatenate(spans).T
    order = np.lexsort((end, start, key))
    ptr = np.searchsorted(key[order], np.arange(len(maps) * num_rows + 1))
    return ptr, start[order], end[order]


def _edges_at_or_below(edges, edge_group, values, value_group) -> np.ndarray:
    """For each value, how many edges of its group are ``<= value``
    (``np.searchsorted(..., side="right")`` per group; each group's edges
    are ascending and groups are numbered in order)."""
    m = edges.size
    is_value = np.r_[np.zeros(m, dtype=bool), np.ones(values.size, dtype=bool)]
    # Edges sort before equal values, so an equal edge counts.
    order = np.lexsort((
        is_value,
        np.r_[edges, values],
        np.r_[edge_group, value_group],
    ))
    passed = np.cumsum(~is_value[order])
    at = order >= m
    group_first_edge = np.searchsorted(edge_group, value_group)
    counts = np.empty(values.size, dtype=np.intp)
    placed = order[at] - m
    counts[placed] = passed[at] - group_first_edge[placed]
    return counts


def _segment_sums(w: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Total width per segment (in any summation order)."""
    sums = np.add.reduceat(np.r_[w, 0.0], seg_start[:-1])
    sums[seg_start[1:] == seg_start[:-1]] = 0.0
    return sums


def _left_to_right_sum(w: np.ndarray):
    """``w[0] + w[1] + ...`` in order, the float the ε tests are defined
    on.  Near a threshold the summation order decides the outcome."""
    return np.add.accumulate(w)[-1]


def _cascade(w, seg_start, capacity, first: int, last: int) -> None:
    """Move overfull segments' tails into the next segment, segments
    ``first .. last - 1`` in order, by moving ``seg_start`` boundaries.

    A segment's width is summed left to right, then one width is
    subtracted per moved variable, last first, until the rest fits (or
    the segment is empty).
    """
    for s in range(first, last):
        lo, hi = int(seg_start[s]), int(seg_start[s + 1])
        if lo == hi:
            continue
        limit = capacity[s] + 1e-9
        total = _left_to_right_sum(w[lo:hi])
        if total > limit:
            rest = np.subtract.accumulate(np.r_[total, w[lo:hi][::-1]])[:-1]
            fits = np.flatnonzero(rest <= limit)
            seg_start[s + 1] = hi - (int(fits[0]) if fits.size else hi - lo)


def _joint_lowers(
    model: SubcellModel,
    anchors: Dict[int, List[Tuple[float, float]]],
    x_origin: float,
    var_groups: Optional[np.ndarray] = None,
    group_anchors: Optional[Dict[int, Dict[int, List[Tuple[float, float]]]]] = None,
) -> np.ndarray:
    """Joint left bound per variable: for each multi-row cell, the left
    end of the first gap between the union of its spanned rows' obstacles
    that fits the cell and reaches its target (else past the last
    obstacle); 0 for every other variable.

    In grouped (fence) mode each cell is measured against *its own
    group's* obstacle map, so a fenced double-height cell is steered by
    the fence complement, not by another group's geometry.
    """
    jl = np.zeros(model.num_variables)
    if not anchors and group_anchors is None:
        return jl
    num_rows = model.row_start.size - 1
    multi = np.flatnonzero(np.diff(model.cell_start)[model.var_cell] > 1)
    maps, rank = _group_maps(anchors, group_anchors, var_groups, multi)
    ptr, obs_lo, obs_hi = _obstacle_csr(maps, num_rows)
    key = rank * num_rows + model.var_row[multi]
    count = ptr[key + 1] - ptr[key]
    take = np.repeat(ptr[key] - (np.cumsum(count) - count), count)
    take += np.arange(take.size)
    # Every obstacle of every spanned row, per cell, sorted as tuples.
    owner = np.repeat(model.var_cell[multi], count)
    order = np.lexsort((obs_hi[take], obs_lo[take], owner))
    owner, start, end = owner[order], obs_lo[take][order], obs_hi[take][order]
    m = owner.size
    if not m:
        return jl
    new_cell = np.ones(m, dtype=bool)
    new_cell[1:] = owner[1:] != owner[:-1]
    cell_rank = np.cumsum(new_cell) - 1
    # Furthest end so far within the cell, exactly: a running max over
    # (cell rank, rank of the end) integer keys.
    by_end = np.argsort(end, kind="stable")
    end_rank = np.empty(m, dtype=np.intp)
    end_rank[by_end] = np.arange(m)
    reach = end[by_end[np.maximum.accumulate(cell_rank * m + end_rank) % m]]
    before = np.r_[0.0, reach[:-1]]
    # An interval starting more than 1e-9 past everything before it opens
    # a coalesced obstacle; the gap left of it starts at the furthest end
    # so far (0 at the cell's first).
    opens = new_cell | (start > before + 1e-9)
    gap_lo = np.where(new_cell, 0.0, np.maximum(0.0, before))
    fits = (
        opens
        & (start - gap_lo >= model.cell_width[owner] - 1e-9)
        & (model.cell_gp_x[owner] - x_origin < start)
    )
    last = np.r_[new_cell[1:], True]
    chosen = np.maximum(0.0, reach[last])
    hit = np.flatnonzero(fits)
    cells_hit, first_hit = np.unique(cell_rank[hit], return_index=True)
    chosen[cells_hit] = gap_lo[hit[first_hit]]
    cell_lower = np.zeros(model.cell_start.size - 1)
    cell_lower[owner[new_cell]] = chosen
    jl[multi] = cell_lower[model.var_cell[multi]]
    return jl


def build_legalization_qp(
    design: Design,
    model: SubcellModel,
    lam: float = 1000.0,
    enforce_right_boundary: bool = False,
    respect_fixed: bool = True,
) -> LegalizationQP:
    """Assemble the paper's Problem (13) for a split design.

    Notes
    -----
    The paper writes the penalty as ``λ xᵀEᵀEx`` next to ``½xᵀQx``; we fold
    it into a single effective Hessian ``H = Q + λEᵀE`` (equivalent up to a
    factor-2 rescaling of λ, documented in DESIGN.md).  With Q = I and the
    star-pattern E this keeps H symmetric positive definite for any λ > 0
    (Proposition 2).
    """
    if lam <= 0:
        raise ValueError("penalty λ must be positive")
    n = model.num_variables
    x_origin = design.core.xl
    E = model.equality_matrix()
    right = design.core.width if enforce_right_boundary else None
    anchors = fixed_cell_anchors(design) if respect_fixed else None
    var_groups = group_anchors = None
    if design.fences:
        var_groups, group_anchors = fence_group_anchors(
            design, model, anchors or {}
        )
    B, b, lower = build_constraints(
        model, right_boundary=right, anchors=anchors, x_origin=x_origin,
        var_groups=var_groups, group_anchors=group_anchors,
    )
    H = sp.identity(n, format="csr") + lam * (E.T @ E)
    # Targets are clamped into the variable's segment: a cell whose GP
    # position lies left of its segment (it was routed past an obstacle)
    # prefers the segment start — an unclamped negative target would drag
    # its whole cluster leftward through the quadratic mean.
    p = -np.maximum(model.target_array(x_origin) - lower, 0.0)
    qp = QPProblem(H=H, p=p, B=B, b=b)
    return LegalizationQP(
        qp=qp, E=E, lam=lam, x_origin=x_origin, model=model, lower=lower,
        var_groups=var_groups,
    )


def initial_point(legal_qp: LegalizationQP, from_gp: bool = True) -> np.ndarray:
    """A warm-start vector for iterative solvers: the (shifted) GP targets.

    The GP targets are generally infeasible (that is why we legalize), but
    they are an excellent warm start for the MMSIM because the optimum stays
    close to them.  With ``from_gp=False`` returns zeros.
    """
    if not from_gp:
        return np.zeros(legal_qp.num_variables)
    return -legal_qp.qp.p.copy()


def fence_group_anchors(
    design: Design,
    model: SubcellModel,
    fixed_anchors: Dict[int, List[Tuple[float, float]]],
) -> "tuple[np.ndarray, Dict[int, Dict[int, List[Tuple[float, float]]]]]":
    """Per-variable fence groups and per-group obstacle maps.

    Returns ``(var_groups, group_anchors)`` for
    :func:`build_constraints`'s grouped mode:

    * ``var_groups[v]`` is the fence index of variable ``v``'s cell, or
      −1 for unfenced cells;
    * ``group_anchors[g][row]`` merges the fixed-cell intervals with the
      group's blocked region in shifted coordinates — for fence members
      the *complement* of the fence's coverage (so the y ≥ 0 bound plus
      segment routing confine them to the fence), for the unfenced group
      the fence rects themselves (so outsiders flow around every fence).

    Leading/trailing complement pieces that touch the chip edges are
    included only when non-degenerate; the fence's own right edge is
    relaxed exactly like the chip edge and repaired by the fence-aware
    Tetris stage.
    """
    core = design.core
    chip_w = core.width
    eps = 1e-9 * max(core.site_width, 1.0)
    membership = design.fence_index_by_cell_id()
    group_of = np.full(len(design.cells), -1, dtype=np.intp)
    group_of[np.fromiter(membership, np.intp, len(membership))] = np.fromiter(
        membership.values(), np.intp, len(membership)
    )
    var_groups = group_of[model.cell_id[model.var_cell]]

    rows = np.flatnonzero(np.diff(model.row_start)).tolist()
    group_anchors: Dict[int, Dict[int, List[Tuple[float, float]]]] = {}
    for g in np.unique(var_groups).tolist():
        per_row: Dict[int, List[Tuple[float, float]]] = {}
        for row in rows:
            blocked = list(fixed_anchors.get(row, ()))
            if g >= 0:
                spans = [
                    (lo - core.xl, hi - core.xl)
                    for lo, hi in design.fences[g].row_spans(core, row)
                ]
                prev = 0.0
                for lo, hi in spans:
                    if lo > prev + eps:
                        blocked.append((prev, lo))
                    prev = max(prev, hi)
                if prev < chip_w - eps:
                    blocked.append((prev, chip_w))
                if not spans:
                    blocked = [(0.0, chip_w)]
            else:
                for fence in design.fences:
                    blocked.extend(
                        (lo - core.xl, hi - core.xl)
                        for lo, hi in fence.row_overlap_spans(core, row)
                    )
            if not blocked:
                continue
            blocked.sort()
            merged: List[Tuple[float, float]] = []
            for lo, hi in blocked:
                if merged and lo <= merged[-1][1] + eps:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            per_row[row] = merged
        group_anchors[g] = per_row
    return var_groups, group_anchors


def fixed_cell_anchors(design: Design) -> Dict[int, List[Tuple[float, float]]]:
    """Obstacle intervals per chip row from the design's fixed cells.

    Intervals are in shifted coordinates (core left edge = 0), sorted and
    merged per row so :func:`build_constraints` can treat them as segment
    boundaries.
    """
    core = design.core
    raw: Dict[int, List[Tuple[float, float]]] = {}
    for cell in design.cells:
        if not cell.fixed:
            continue
        row0 = core.row_of_y(cell.y)
        lo = cell.x - core.xl
        hi = lo + cell.width
        for r in range(row0, min(row0 + cell.height_rows, core.num_rows)):
            raw.setdefault(r, []).append((lo, hi))
    anchors: Dict[int, List[Tuple[float, float]]] = {}
    for row, intervals in raw.items():
        intervals.sort()
        merged: List[Tuple[float, float]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1] + 1e-9:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        anchors[row] = merged
    return anchors
