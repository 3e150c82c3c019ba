"""Tests for the reference QP solvers (active set, dual LCP)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.subcells import split_cells
from repro.benchgen import generate_benchmark
from repro.qp import (
    QPProblem,
    feasible_left_packing,
    make_dual_lcp,
    solve_qp_active_set,
    solve_reference,
)
from repro.qp.active_set import active_set_solve


def _chain_qp(targets, widths):
    """One row of cells at given GP targets: x_{i+1} − x_i >= w_i, x >= 0."""
    n = len(targets)
    rows, cols, data, b = [], [], [], []
    for i in range(n - 1):
        rows += [i, i]
        cols += [i, i + 1]
        data += [-1.0, 1.0]
        b.append(widths[i])
    B = sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))
    return QPProblem(
        H=sp.identity(n, format="csr"),
        p=-np.asarray(targets, dtype=float),
        B=B,
        b=np.asarray(b, dtype=float),
    )


class TestQPProblem:
    def test_objective_and_feasibility(self):
        qp = _chain_qp([0.0, 10.0], [4.0])
        x = np.array([0.0, 10.0])
        assert qp.objective(x) == pytest.approx(0.5 * (0 + 100) - 100)
        assert qp.is_feasible(x)
        assert not qp.is_feasible(np.array([0.0, 3.0]))
        assert qp.constraint_violation(np.array([0.0, 3.0])) == pytest.approx(1.0)
        assert qp.constraint_violation(np.array([-2.0, 10.0])) == pytest.approx(2.0)

    def test_kkt_residual_zero_at_optimum(self):
        # Overlapping targets: both want 5.0, widths 4: optimum (3, 7).
        qp = _chain_qp([5.0, 5.0], [4.0])
        x = np.array([3.0, 7.0])
        r = np.array([2.0])  # multiplier: H x + p = [−2, 2] = Bᵀ r
        assert qp.kkt_residual(x, r) < 1e-12
        assert qp.kkt_residual(x, np.array([0.0])) > 0.1


class TestLeftPacking:
    def test_produces_feasible_point(self):
        qp = _chain_qp([5.0, 5.0, 5.0], [4.0, 4.0])
        x = feasible_left_packing(qp)
        assert qp.is_feasible(x)
        assert np.allclose(x, [0.0, 4.0, 8.0])

    def test_on_generated_instance(self):
        design = generate_benchmark("fft_a", scale=0.005, seed=2)
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        x = feasible_left_packing(lq.qp)
        assert lq.qp.is_feasible(x)


class TestActiveSet:
    def test_unconstrained_case(self):
        # Non-overlapping targets: optimum is the targets themselves.
        qp = _chain_qp([0.0, 10.0, 20.0], [4.0, 4.0])
        res = solve_qp_active_set(qp)
        assert res.converged
        assert np.allclose(res.x, [0.0, 10.0, 20.0], atol=1e-8)

    def test_two_cell_overlap(self):
        # Both cells want 5.0, width 4: cluster mean placement (3, 7).
        qp = _chain_qp([5.0, 5.0], [4.0])
        res = solve_qp_active_set(qp)
        assert res.converged
        assert np.allclose(res.x, [3.0, 7.0], atol=1e-8)

    def test_left_boundary_binds(self):
        # Cell wants −3: the x >= 0 bound holds it at 0.
        qp = _chain_qp([-3.0, 10.0], [4.0])
        res = solve_qp_active_set(qp)
        assert np.allclose(res.x, [0.0, 10.0], atol=1e-8)

    def test_chain_collapse(self):
        # Three cells all wanting 10, widths 4: optimum (6, 10, 14).
        qp = _chain_qp([10.0, 10.0, 10.0], [4.0, 4.0])
        res = solve_qp_active_set(qp)
        assert np.allclose(res.x, [6.0, 10.0, 14.0], atol=1e-8)

    def test_infeasible_start_rejected(self):
        qp = _chain_qp([5.0, 5.0], [4.0])
        with pytest.raises(ValueError, match="feasible"):
            active_set_solve(
                qp.H.toarray(), qp.p, qp.B.toarray(), qp.b, x0=np.array([0.0, 0.0])
            )


class TestDualLCP:
    def test_recovers_primal_optimum(self):
        qp = _chain_qp([5.0, 5.0], [4.0])
        lcp, recover = make_dual_lcp(qp)
        from repro.lcp import psor_solve

        res = psor_solve(lcp)
        x = recover(res.z)
        assert np.allclose(x, [3.0, 7.0], atol=1e-6)

    def test_no_constraints_gives_empty_dual_and_unconstrained_minimizer(self):
        from repro.lcp import psor_solve

        H = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]))
        qp = QPProblem(
            H=H, p=np.array([-1.0, -2.0, -3.0]), B=sp.csr_matrix((0, 3)), b=np.zeros(0)
        )
        lcp, recover = make_dual_lcp(qp)
        assert lcp.n == 0 and lcp.A.shape == (0, 0)
        res = psor_solve(lcp)
        assert res.converged and res.z.shape == (0,)
        np.testing.assert_allclose(
            recover(res.z), np.linalg.solve(H.toarray(), [1.0, 2.0, 3.0])
        )

    def test_dual_matrix_spd(self):
        design = generate_benchmark("fft_a", scale=0.003, seed=9)
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        lcp, _ = make_dual_lcp(lq.qp)
        A = lcp.A.toarray()
        assert np.allclose(A, A.T, atol=1e-8)
        assert np.all(np.linalg.eigvalsh(A) > 0)


class TestReferenceFrontend:
    def test_active_set_selected_for_small(self):
        qp = _chain_qp([5.0, 5.0], [4.0])
        res = solve_reference(qp)
        assert res.method == "active_set"
        assert np.allclose(res.x, [3.0, 7.0], atol=1e-7)

    def test_dual_psor_path(self):
        qp = _chain_qp([5.0, 5.0, 12.0], [4.0, 4.0])
        res = solve_reference(qp, method="dual_psor")
        ref = solve_reference(qp, method="active_set")
        assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_unknown_method(self):
        qp = _chain_qp([5.0, 5.0], [4.0])
        with pytest.raises(ValueError):
            solve_reference(qp, method="nope")

    def test_agreement_on_generated_instance(self):
        design = generate_benchmark("fft_a", scale=0.004, seed=3)
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        a = solve_reference(lq.qp, method="active_set")
        assert a.converged
        b = solve_reference(lq.qp, method="dual_psor")
        assert a.objective == pytest.approx(b.objective, rel=1e-6)
