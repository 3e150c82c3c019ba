"""Tests for the paper's Eq. (16) splitting: Woodbury H⁻¹, tridiagonal D,
block-triangular solves, and the Theorem 2 parameter window."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.splitting import (
    LegalizationSplitting,
    SplittingParameters,
    schur_tridiagonal,
    woodbury_h_inverse,
)
from repro.core.subcells import split_cells
from repro.benchgen import generate_benchmark
from repro.kernels import ReferenceSweepRunner


def _mixed_qp(scale=0.01, seed=5, lam=1000.0):
    design = generate_benchmark("fft_a", scale=scale, seed=seed)
    model = split_cells(design, assign_rows(design))
    return build_legalization_qp(design, model, lam=lam)


class TestWoodburyInverse:
    def test_identity_when_no_multirow(self):
        E = sp.csr_matrix((0, 5))
        H_inv = woodbury_h_inverse(E, 1000.0)
        assert np.allclose(H_inv.toarray(), np.eye(5))

    def test_matches_dense_inverse_double_height(self):
        lq = _mixed_qp(lam=1000.0)
        H = lq.qp.H.toarray()
        H_inv = woodbury_h_inverse(lq.E, lq.lam).toarray()
        assert np.allclose(H_inv @ H, np.eye(H.shape[0]), atol=1e-8)

    def test_matches_paper_closed_form_for_doubles(self):
        """All-double designs: H⁻¹ = I − λ/(2λ+1) EᵀE (paper, Section 3.2)."""
        lq = _mixed_qp(lam=7.0)
        E = lq.E.toarray()
        expected = np.eye(E.shape[1]) - (7.0 / (2 * 7.0 + 1)) * (E.T @ E)
        got = woodbury_h_inverse(lq.E, 7.0).toarray()
        assert np.allclose(got, expected, atol=1e-10)

    def test_triple_height_blocks(self):
        """A 3-row cell produces a 2x2 coupled block; the blockwise inverse
        must still invert H exactly."""
        # E rows for one triple-height cell: x1=x2, x1=x3 (star pattern).
        E = sp.csr_matrix(
            np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        )
        lam = 13.0
        H = np.eye(3) + lam * (E.T @ E).toarray()
        H_inv = woodbury_h_inverse(E, lam).toarray()
        assert np.allclose(H_inv @ H, np.eye(3), atol=1e-10)


class TestSchurTridiagonal:
    def test_matches_dense_computation(self):
        lq = _mixed_qp()
        H_inv = woodbury_h_inverse(lq.E, lq.lam)
        D = schur_tridiagonal(lq.qp.B, H_inv).toarray()
        S = (lq.qp.B @ H_inv @ lq.qp.B.T).toarray()
        m = S.shape[0]
        expected = np.zeros_like(S)
        for i in range(m):
            for j in range(max(0, i - 1), min(m, i + 2)):
                expected[i, j] = S[i, j]
        assert np.allclose(D, expected)

    def test_empty_constraints(self):
        D = schur_tridiagonal(sp.csr_matrix((0, 4)), sp.identity(4, format="csr"))
        assert D.shape == (0, 0)

    def test_single_constraint(self):
        B = sp.csr_matrix(np.array([[-1.0, 1.0]]))
        D = schur_tridiagonal(B, sp.identity(2, format="csr")).toarray()
        assert D.shape == (1, 1)
        assert D[0, 0] == pytest.approx(2.0)


class TestLegalizationSplitting:
    def test_m_minus_n_equals_A(self):
        """The splitting must satisfy A = M − N blockwise (Eq. 16)."""
        lq = _mixed_qp(scale=0.005)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        n, m = spl.n, spl.m
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = rng.standard_normal(n + m)
            # (M − N)s must equal A s where A is the KKT matrix.
            lcp = lq.qp.kkt_lcp()
            As = lcp.A @ s
            # M s = (M+Ω)s − s; recover via the solve: M s = rhs where
            # solve(rhs + s_target)... easier: use N and A: Ms = As + Ns.
            Ns = spl.apply_N(s)
            Ms = As + Ns
            # Verify with the solver: solve_M_plus_omega(Ms + s) == s.
            back = spl.solve_M_plus_omega(Ms + s)
            assert np.allclose(back, s, atol=1e-8)

    def test_omega_minus_A_consistent(self):
        lq = _mixed_qp(scale=0.005)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        lcp = lq.qp.kkt_lcp()
        rng = np.random.default_rng(1)
        t = np.abs(rng.standard_normal(spl.n + spl.m))
        got = spl.apply_omega_minus_A(t)
        expected = t - lcp.A @ t
        assert np.allclose(got, expected, atol=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SplittingParameters(beta=0.0)
        with pytest.raises(ValueError):
            SplittingParameters(beta=2.0)
        with pytest.raises(ValueError):
            SplittingParameters(theta=-1.0)

    def test_theorem2_window_contains_paper_defaults(self):
        """β* = θ* = 0.5 sits inside the proven window on real instances."""
        lq = _mixed_qp(scale=0.01)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        mu = spl.estimate_mu_max()
        assert mu > 0
        bound = spl.theta_upper_bound(mu)
        assert bound > 0.5  # paper's θ* = 0.5 is inside
        assert spl.parameters_satisfy_theorem2(mu)

    def test_fast_kernels_selected_on_legalization_structure(self):
        """With H = I + λEᵀE the Woodbury top inverse must be installed
        (no SuperLU in the sweep)."""
        lq = _mixed_qp(scale=0.01)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        assert spl.top_kernel == "woodbury"
        assert spl._H_inv_top is not None

    def test_fast_solve_matches_superlu(self):
        """Kernel parity: Woodbury + banded solves vs the SuperLU
        factorizations of the resilience ladder's safe rung, to 1e-10 on
        random right-hand sides."""
        lq = _mixed_qp(scale=0.01)
        fast = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        slow = LegalizationSplitting._superlu(fast)
        assert (fast.top_kernel, fast.bottom_kernel) == ("woodbury", "pttrs")
        assert (slow.top_kernel, slow.bottom_kernel) == ("superlu", "superlu")
        rng = np.random.default_rng(42)
        for _ in range(5):
            rhs = rng.standard_normal(fast.n + fast.m)
            got = fast.solve_M_plus_omega(rhs)
            want = slow.solve_M_plus_omega(rhs)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_fused_rhs_matches_reference(self):
        """The sweep runner's rhs must equal apply_N + apply_omega_minus_A
        − γq, in its first-sweep form and in the stacked-operator form of
        every later call."""
        lq = _mixed_qp(scale=0.01)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        runner = ReferenceSweepRunner(spl)
        rng = np.random.default_rng(7)
        gq = 2.0 * lq.qp.kkt_lcp().q
        for _ in range(5):
            s = rng.standard_normal(spl.n + spl.m)
            s_abs = np.abs(s)
            want = spl.apply_N(s) + spl.apply_omega_minus_A(s_abs) - gq
            got = runner.rhs(s, gq)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_fused_rhs_buffer_reuse_is_consumed_safely(self):
        """Two successive calls return the runner's one scratch buffer;
        the second call's contents must be correct (the first result is
        retired)."""
        lq = _mixed_qp(scale=0.005)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        gq = 2.0 * lq.qp.kkt_lcp().q
        rng = np.random.default_rng(11)
        s1 = rng.standard_normal(spl.n + spl.m)
        s2 = rng.standard_normal(spl.n + spl.m)
        runner = ReferenceSweepRunner(spl)
        out1 = runner.rhs(s1, gq)
        out2 = runner.rhs(s2, gq)
        assert out1 is out2
        want = spl.apply_N(s2) + spl.apply_omega_minus_A(np.abs(s2)) - gq
        assert np.allclose(out2, want, atol=1e-10)

    def test_fast_path_falls_back_on_foreign_H(self):
        """An H without the I + λEᵀE structure must fail the probe check
        and fall back to the factorized solver — still exact."""
        lq = _mixed_qp(scale=0.005)
        H = lq.qp.H + 0.5 * sp.identity(lq.qp.H.shape[0])  # breaks the form
        spl = LegalizationSplitting(H, lq.qp.B, lq.E, lq.lam)
        assert spl._H_inv_top is None  # Woodbury rejected by the probe
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal(spl.n + spl.m)
        top = (H / spl.params.beta + sp.identity(spl.n)).toarray()
        bottom = (spl.D / spl.params.theta + sp.identity(spl.m)).toarray()
        # Block lower-triangular solve done densely as the oracle.
        s1 = np.linalg.solve(top, rhs[: spl.n])
        s2 = np.linalg.solve(bottom, rhs[spl.n :] - spl.B @ s1)
        got = spl.solve_M_plus_omega(rhs)
        assert np.allclose(got, np.concatenate([s1, s2]), atol=1e-8)

    def test_no_constraints_degenerate_case(self):
        """A single-cell design has no constraints; the splitting still works."""
        from repro.netlist import CellMaster, Design
        from repro.rows import CoreArea

        core = CoreArea(num_rows=2, row_height=9.0, num_sites=20)
        design = Design(name="one", core=core)
        design.add_cell("c", CellMaster("S", width=4.0, height_rows=1), 3.0, 0.0)
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
        assert spl.m == 0
        assert spl.estimate_mu_max() == 0.0
        assert spl.theta_upper_bound() == float("inf")
        s = np.array([2.5])
        assert np.allclose(spl.apply_N(s), 1.0 * (1 / 0.5 - 1) * s)
