#!/usr/bin/env python3
"""Anatomy of the MMSIM flow on a design small enough to print.

Recreates the paper's Figure 3 scenario (two double-height cells around a
single-height one) plus a couple of extra cells, then walks the five stages
of Figure 4 *manually*, printing the actual matrices and vectors at every
step — the B and E of Problem (13), the KKT LCP dimensions, the iteration
count, the subcell mismatch, and the Tetris repairs.

Run:  python examples/anatomy_of_the_flow.py
"""

import numpy as np

from repro import CellMaster, CoreArea, Design, RailType, check_legality
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.splitting import LegalizationSplitting
from repro.core.subcells import restore_cells, split_cells
from repro.core.tetris_fix import tetris_allocate
from repro.lcp import MMSIMOptions, mmsim_solve
from repro.lcp.problem import split_kkt_solution

np.set_printoptions(precision=2, suppress=True, linewidth=100)

# ----------------------------------------------------------------------
# A Figure-3-like design: c1, c3 double height (VSS-bottom), c2 single,
# plus two more singles in the upper row, all slightly overlapping.
# ----------------------------------------------------------------------
core = CoreArea(num_rows=4, row_height=9.0, num_sites=40)
design = Design(name="anatomy", core=core)
d1 = CellMaster("D1", width=4.0, height_rows=2, bottom_rail=RailType.VSS)
s2 = CellMaster("S2", width=5.0, height_rows=1)
d3 = CellMaster("D3", width=4.0, height_rows=2, bottom_rail=RailType.VSS)
s4 = CellMaster("S4", width=3.0, height_rows=1)

design.add_cell("c1", d1, 2.0, 1.0)
design.add_cell("c2", s2, 5.0, 0.5)    # overlaps c1 in row 0
design.add_cell("c3", d3, 8.5, 0.0)    # overlaps c2
design.add_cell("c4", s4, 11.0, 9.5)   # row 1, overlaps c3's top half
design.add_cell("c5", s4, 11.5, 9.0)   # overlaps c4

print("=== stage 1: nearest-correct-row assignment " + "=" * 30)
assignment = assign_rows(design)
for cell in design.cells:
    rail = core.bottom_rail(cell.row_index).value
    print(f"  {cell.name}: gp_y={cell.gp_y:4.1f} -> row {cell.row_index} "
          f"(bottom rail {rail}){' FLIPPED' if cell.flipped else ''}")
print(f"  y displacement (provably minimal): {assignment.y_displacement:.2f}")

print("\n=== stage 2: multi-row splitting " + "=" * 41)
model = split_cells(design, assignment)
for i, cell_id in enumerate(model.cell_id.tolist()):
    variables = list(range(model.cell_start[i], model.cell_start[i + 1]))
    print(f"  {design.cells[cell_id].name}: variables {variables}"
          + ("  (subcells, tied by E)" if len(variables) > 1 else ""))
for row in range(core.num_rows):
    sequence = model.row_vars[model.row_start[row]:model.row_start[row + 1]]
    if sequence.size:
        print(f"  row {row} sequence (GP-x order): {sequence.tolist()}")

print("\n=== stage 3: the relaxed QP (paper Problem 13) " + "=" * 27)
lq = build_legalization_qp(design, model, lam=1000.0)
print(f"  B ({lq.qp.B.shape[0]} constraints x {lq.qp.B.shape[1]} variables):")
print("  " + str(lq.qp.B.toarray()).replace("\n", "\n  "))
print(f"  b = {lq.qp.b}")
print(f"  E ({lq.E.shape[0]} equalities):")
print("  " + str(lq.E.toarray()).replace("\n", "\n  "))
print(f"  p = {lq.qp.p}   (negated GP x targets)")
rank = np.linalg.matrix_rank(lq.qp.B.toarray())
print(f"  rank(B) = {rank} == m = {lq.qp.B.shape[0]}  (Proposition 2)")

print("\n=== stage 4: KKT LCP + MMSIM (paper Eq. 15/16, Alg. 1) " + "=" * 18)
lcp = lq.qp.kkt_lcp()
print(f"  LCP size: {lcp.n} = {lq.num_variables} primal + "
      f"{lq.num_constraints} multipliers")
splitting = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
mu = splitting.estimate_mu_max()
print(f"  mu_max(Γ) ~= {mu:.3f} -> Theorem-2 θ bound "
      f"{splitting.theta_upper_bound(mu):.3f} (using θ*=0.5)")
res = mmsim_solve(lcp, splitting, MMSIMOptions(tol=1e-9, residual_tol=1e-7))
print(f"  converged in {res.iterations} sweeps; "
      f"LCP natural residual {res.residual:.1e}")
x, r = split_kkt_solution(res.z, lq.num_variables)
print(f"  x* = {x}")
print(f"  r* = {r}   (active constraints have r_k > 0)")

print("\n=== stage 5: restore + Tetris-like allocation " + "=" * 28)
max_mm, mean_mm = restore_cells(design, model, x, lq.x_origin)
print(f"  subcell mismatch: max {max_mm:.2e} (λ=1000 keeps it tiny)")
stats = tetris_allocate(design)
print(f"  snapped to sites; illegal cells needing re-placement: "
      f"{stats.num_illegal}")
for cell in design.cells:
    print(f"  {cell.name}: gp=({cell.gp_x:5.2f}, {cell.gp_y:4.1f}) -> "
          f"({cell.x:5.2f}, {cell.y:4.1f})")
report = check_legality(design)
print(f"\nfinal: {report.summary()}")
assert report.is_legal
