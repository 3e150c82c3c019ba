"""Ablation: the splitting parameters β*, θ* and the Theorem 2 window.

Theorem 2 guarantees convergence for 0 < β* < 2 and
0 < θ* < 2(2−β*)/(β* μ_max) with μ_max the top eigenvalue of
Γ = D⁻¹ B H⁻¹ Bᵀ.  This sweep measures iteration counts across the
(β*, θ*) grid, reports the estimated window bound, and verifies that the
paper's choice (0.5, 0.5) lies inside the window and converges, and that
a setting far outside it, (1.9, 1.9), diverges.  The window is
sufficient, not necessary: (1.5, 0.5) lies outside its bound of 0.334
and still converges.

Also ablates the D matrix itself: the paper's tridiagonal Schur
approximation versus a plain diagonal one (cheaper, slower convergence).

Run:  pytest benchmarks/bench_ablation_splitting.py --benchmark-only -s
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from conftest import bench_scale, write_result
from repro.analysis import format_table
from repro.benchgen import get_profile, make_benchmark
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.splitting import LegalizationSplitting, SplittingParameters
from repro.core.subcells import split_cells
from repro.lcp import MMSIMOptions, mmsim_solve

SEED = 11
GRID = [(0.25, 0.25), (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.5, 0.5), (1.9, 1.9)]


def _build():
    profile = get_profile("fft_2")
    design = make_benchmark(
        profile.name, scale=min(bench_scale(profile), 0.02), seed=SEED, with_nets=False
    )
    model = split_cells(design, assign_rows(design))
    lq = build_legalization_qp(design, model)
    return lq, lq.qp.kkt_lcp()


def _sweep():
    lq, lcp = _build()
    rows = []
    for beta, theta in GRID:
        spl = LegalizationSplitting(
            lq.qp.H, lq.qp.B, lq.E, lq.lam, SplittingParameters(beta, theta)
        )
        bound = spl.theta_upper_bound()
        inside = theta < bound
        res = mmsim_solve(
            lcp, spl, MMSIMOptions(tol=1e-6, residual_tol=1e-4, max_iterations=8000)
        )
        rows.append(
            [beta, theta, round(bound, 3), inside, res.iterations,
             res.converged, f"{res.residual:.1e}"]
        )
    # D-matrix ablation at the paper's (0.5, 0.5).
    d_rows = []
    for mode in ("tridiagonal", "diagonal"):
        spl = LegalizationSplitting(
            lq.qp.H, lq.qp.B, lq.E, lq.lam, SplittingParameters(0.5, 0.5)
        )
        if mode == "diagonal":
            m = spl.D.shape[0]
            spl.D = sp.diags(spl.D.diagonal()).tocsr()
            import scipy.sparse.linalg as spla

            spl._solve_bottom = spla.factorized(
                (spl.D / spl.params.theta + sp.identity(m)).tocsc()
            )
            # N's D/θ* too: the sweep multiplies by this prescaled copy.
            spl._D_theta = (spl.D / spl.params.theta).tocsr()
        res = mmsim_solve(
            lcp, spl, MMSIMOptions(tol=1e-6, residual_tol=1e-4, max_iterations=8000)
        )
        d_rows.append([mode, res.iterations, res.converged])
    return rows, d_rows


def test_ablation_splitting_parameters(benchmark):
    rows, d_rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = format_table(
        ["β*", "θ*", "θ bound", "inside window", "iters", "converged", "residual"],
        rows,
        title="Theorem 2 window sweep on fft_2 (paper uses β*=θ*=0.5)",
    )
    d_table = format_table(
        ["D approximation", "iters", "converged"],
        d_rows,
        title="Schur-complement approximation ablation at (0.5, 0.5)",
    )
    print()
    print(table)
    print(d_table)
    write_result("ablation_splitting", table + "\n" + d_table)

    by_params = {(r[0], r[1]): r for r in rows}
    # The paper's default converges and sits inside the window.
    assert by_params[(0.5, 0.5)][5]
    assert by_params[(0.5, 0.5)][3]
    # A setting far outside the window fails (β*=1.9, θ*=1.9).  The
    # window is only sufficient: (1.5, 0.5) lies outside it and
    # converges, so only this far-out corner is asserted.
    assert not by_params[(1.9, 1.9)][3]
    assert not by_params[(1.9, 1.9)][5]
    # Both D variants converge (the tridiagonal choice is about robustness
    # across instances, not per-instance iteration counts).
    assert all(r[2] for r in d_rows)
