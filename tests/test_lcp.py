"""Tests for the LCP package: problem container, MMSIM, PSOR, fixed point.

The key oracle: for symmetric positive definite A, the LCP has a unique
solution; PSOR at tight tolerance serves as the reference, and every other
solver must agree with it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lcp import (
    LCP,
    ExactSplitting,
    FixedPointOptions,
    GaussSeidelSplitting,
    JacobiSplitting,
    MMSIMOptions,
    SORSplitting,
    fixed_point_solve,
    make_kkt_lcp,
    mmsim_solve,
    psor_solve,
    split_kkt_solution,
)
from repro.benchgen import generate_benchmark
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.splitting import LegalizationSplitting
from repro.core.subcells import split_cells
from repro.lcp.fixed_point import estimate_lambda_max
from repro.lcp.mmsim import warm_start_from_z
from repro.telemetry import EventSink
from fused_oracle import FusedSweepRunner
from test_mmsim_stall_rescue import STALL_SEEDS, _stall_instance


def random_spd_lcp(n: int, seed: int) -> LCP:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    A = m @ m.T + n * np.eye(n)
    q = rng.standard_normal(n) * 5
    return LCP(A=sp.csr_matrix(A), q=q)


def random_hplus_lcp(n: int, seed: int) -> LCP:
    """A strictly diagonally dominant symmetric matrix (an H+-matrix) —
    the regime where Bai (2010) proves convergence of the modulus-based
    Jacobi / Gauss-Seidel / SOR splittings."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    A = 0.5 * (m + m.T)
    np.fill_diagonal(A, 0.0)
    dominance = np.abs(A).sum(axis=1) + rng.uniform(0.5, 2.0, size=n)
    A += np.diag(dominance)
    q = rng.standard_normal(n) * 5
    return LCP(A=sp.csr_matrix(A), q=q)


class TestLCPContainer:
    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            LCP(A=np.eye(3), q=np.zeros(2))

    def test_residual_zero_at_solution(self):
        # A = I, q = [-1, 2]: solution z = [1, 0] (w = [0, 2]).
        lcp = LCP(A=sp.identity(2, format="csr"), q=np.array([-1.0, 2.0]))
        z = np.array([1.0, 0.0])
        assert lcp.natural_residual(z) == 0.0
        assert lcp.complementarity_gap(z) == 0.0
        assert lcp.is_solution(z)
        assert not lcp.is_solution(np.array([0.5, 0.0]))

    def test_infeasibility(self):
        lcp = LCP(A=sp.identity(2, format="csr"), q=np.array([-1.0, 2.0]))
        # z = [-0.5, 0]: violates z >= 0 by 0.5 and w = Az+q = [-1.5, 2]
        # violates w >= 0 by 1.5; the worst violation is reported.
        assert lcp.infeasibility(np.array([-0.5, 0.0])) == pytest.approx(1.5)

    def test_make_kkt_lcp_structure(self):
        H = np.eye(2)
        B = np.array([[-1.0, 1.0]])
        lcp = make_kkt_lcp(H, p=[-1.0, -2.0], B=B, b=[3.0])
        A = lcp.A.toarray()
        expected = np.array(
            [[1, 0, 1], [0, 1, -1], [-1, 1, 0]], dtype=float
        )
        assert np.allclose(A, expected)
        assert np.allclose(lcp.q, [-1, -2, -3])

    def test_make_kkt_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_kkt_lcp(np.eye(2), p=[0, 0, 0], B=np.ones((1, 2)), b=[0])
        with pytest.raises(ValueError):
            make_kkt_lcp(np.eye(2), p=[0, 0], B=np.ones((1, 3)), b=[0])

    def test_split_kkt_solution(self):
        x, r = split_kkt_solution(np.array([1.0, 2.0, 3.0]), 2)
        assert np.allclose(x, [1, 2])
        assert np.allclose(r, [3])


class TestPSOR:
    def test_matches_closed_form(self):
        lcp = LCP(A=sp.identity(2, format="csr"), q=np.array([-1.0, 2.0]))
        res = psor_solve(lcp)
        assert res.converged
        assert np.allclose(res.z, [1.0, 0.0], atol=1e-8)

    def test_requires_positive_diagonal(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            psor_solve(LCP(A=A, q=np.zeros(2)))

    def test_bad_relaxation(self):
        from repro.lcp.psor import PSOROptions

        with pytest.raises(ValueError):
            PSOROptions(relax=2.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_spd_solution_valid(self, seed):
        lcp = random_spd_lcp(8, seed)
        res = psor_solve(lcp)
        assert res.converged
        assert lcp.natural_residual(res.z) < 1e-6


class TestFixedPoint:
    def test_matches_psor(self):
        lcp = random_spd_lcp(10, 3)
        ref = psor_solve(lcp)
        res = fixed_point_solve(lcp)
        assert res.converged
        assert np.allclose(res.z, ref.z, atol=1e-5)

    def test_explicit_step(self):
        lcp = random_spd_lcp(6, 4)
        lam = estimate_lambda_max(sp.csr_matrix(lcp.A))
        res = fixed_point_solve(lcp, FixedPointOptions(step=0.5 / lam))
        assert res.converged
        assert lcp.natural_residual(res.z) < 1e-6

    def test_bad_step(self):
        lcp = random_spd_lcp(4, 5)
        with pytest.raises(ValueError):
            fixed_point_solve(lcp, FixedPointOptions(step=-1.0))


class TestGenericMMSIM:
    @pytest.mark.parametrize(
        "splitting_cls", [JacobiSplitting, GaussSeidelSplitting, ExactSplitting]
    )
    def test_matches_psor_on_random_spd(self, splitting_cls):
        lcp = random_hplus_lcp(12, 7)
        ref = psor_solve(lcp)
        splitting = splitting_cls(lcp.A)
        res = mmsim_solve(lcp, splitting, MMSIMOptions(tol=1e-12, residual_tol=1e-8))
        assert res.converged, res.message
        assert np.allclose(res.z, ref.z, atol=1e-5)

    def test_sor_splitting(self):
        lcp = random_hplus_lcp(9, 11)
        ref = psor_solve(lcp)
        res = mmsim_solve(
            lcp, SORSplitting(lcp.A, relax=1.2), MMSIMOptions(tol=1e-12, residual_tol=1e-8)
        )
        assert res.converged
        assert np.allclose(res.z, ref.z, atol=1e-5)

    def test_gamma_invariance(self):
        lcp = random_spd_lcp(8, 13)
        z1 = mmsim_solve(lcp, ExactSplitting(lcp.A), MMSIMOptions(gamma=1.0, tol=1e-12)).z
        z2 = mmsim_solve(lcp, ExactSplitting(lcp.A), MMSIMOptions(gamma=4.0, tol=1e-12)).z
        assert np.allclose(z1, z2, atol=1e-6)

    def test_warm_start_converges_faster(self):
        lcp = random_hplus_lcp(20, 17)
        splitting = GaussSeidelSplitting(lcp.A)
        cold = mmsim_solve(lcp, splitting, MMSIMOptions(tol=1e-10))
        # Warm start from (a scaled version of) the solution.
        s0 = cold.z  # z = (|s|+s)/gamma -> s = gamma*z/2 on the positive part
        warm = mmsim_solve(lcp, splitting, MMSIMOptions(tol=1e-10), s0=s0)
        assert warm.iterations <= cold.iterations

    def test_max_iterations_reported(self):
        lcp = random_hplus_lcp(10, 19)
        res = mmsim_solve(
            lcp, JacobiSplitting(lcp.A), MMSIMOptions(tol=1e-15, max_iterations=2)
        )
        assert not res.converged
        assert res.iterations == 2
        assert "max iterations" in res.message

    def test_option_validation(self):
        with pytest.raises(ValueError):
            MMSIMOptions(gamma=0.0)
        with pytest.raises(ValueError):
            MMSIMOptions(max_iterations=0)
        with pytest.raises(ValueError, match="stall_window"):
            MMSIMOptions(stall_window=0)
        with pytest.raises(ValueError, match="tol"):
            MMSIMOptions(tol=-1.0)
        with pytest.raises(ValueError, match="residual_tol"):
            MMSIMOptions(residual_tol=-1.0)
        with pytest.raises(ValueError, match="tol"):
            MMSIMOptions(tol=float("nan"))
        with pytest.raises(ValueError, match="block"):
            MMSIMOptions(block=0)
        # tol=0 stays valid: fixed-sweep runs never converge.
        assert MMSIMOptions(tol=0.0, residual_tol=None).tol == 0.0
        assert MMSIMOptions(residual_tol=0.0).residual_tol == 0.0

    def test_block_runner_clamps_last_step_to_budget(self):
        """A budget that ends mid-block still runs to max_iterations and
        tests convergence on its final sweep: the block-8 schedule here
        is 1, 3, 7, then 13 (clamped from 15)."""
        lcp = random_hplus_lcp(10, 19)
        sink = EventSink()
        opts = MMSIMOptions(
            tol=1e-5, residual_tol=1e-4, max_iterations=13, block=8,
            telemetry=sink,
        )
        res = mmsim_solve(lcp, JacobiSplitting(lcp.A), opts)
        checks = [e["iteration"] for e in sink.events("mmsim", "iteration")]
        assert checks == [1, 3, 7, 13]
        assert res.converged
        assert res.iterations == 13
        # The blocked sweeps are the plain iteration's first 13 sweeps.
        z, _, _ = per_sweep_oracle(
            lcp, JacobiSplitting(lcp.A),
            MMSIMOptions(tol=0.0, residual_tol=None, max_iterations=13),
        )
        np.testing.assert_array_equal(res.z, z)


# ----------------------------------------------------------------------
# The one MMSIM drive against the plain per-sweep iteration
# ----------------------------------------------------------------------
def per_sweep_oracle(lcp, splitting, opts, s0=None, z0=None):
    """The plain per-sweep MMSIM (one convergence test and one stall
    check per sweep) — the arithmetic the shared drive must reproduce on
    the reference path.  A legalization splitting sweeps with the fused
    oracle (``tests/fused_oracle.py``), whose arithmetic the runner's
    sweep matches bit for bit.  Returns ``(z, iterations, message)``."""
    gamma = opts.gamma
    if s0 is None and z0 is not None:
        s0 = warm_start_from_z(lcp, z0, gamma)
    s = np.zeros(lcp.n) if s0 is None else np.array(s0, dtype=float)
    z_prev = (np.abs(s) + s) / gamma
    fused = None
    if isinstance(splitting, LegalizationSplitting):
        fused = FusedSweepRunner(splitting).run
    gq = gamma * lcp.q
    omega, checkpoint, rescued, converged = opts.damping, None, False, False
    for k in range(1, opts.max_iterations + 1):
        if fused is not None:
            s = fused(s, 1, gq, omega)
        else:
            s_abs = np.abs(s)
            rhs = splitting.apply_N(s) + splitting.apply_omega_minus_A(s_abs) - gq
            s_hat = splitting.solve_M_plus_omega(rhs)
            s = s_hat if omega == 1.0 else omega * s_hat + (1.0 - omega) * s
        z = (np.abs(s) + s) / gamma
        step = float(np.max(np.abs(z - z_prev))) if lcp.n else 0.0
        z_prev = z
        if step < opts.tol:
            converged = (
                opts.residual_tol is None
                or lcp.natural_residual(z) <= opts.residual_tol
            )
        if converged:
            break
        if (
            opts.auto_damping
            and omega > opts.min_damping
            and k % opts.stall_window == 0
        ):
            if checkpoint is not None and step >= 0.9 * checkpoint:
                omega = max(omega * opts.rescue_damping, opts.min_damping)
                rescued = True
            checkpoint = step
    message = "" if converged else "max iterations reached"
    if rescued:
        message = (message + f"; stall rescued with damping {omega:g}").lstrip(
            "; "
        )
    return z_prev, k, message


def _legalization_lcp(seed=3, scale=0.01):
    design = generate_benchmark("fft_2", scale=scale, seed=seed)
    lq = build_legalization_qp(design, split_cells(design, assign_rows(design)))
    return lq, lq.qp.kkt_lcp()


def _assert_matches_oracle(lcp, make_splitting, opts, **seed):
    res = mmsim_solve(lcp, make_splitting(), opts, **seed)
    z, iterations, message = per_sweep_oracle(lcp, make_splitting(), opts, **seed)
    np.testing.assert_array_equal(res.z, z)
    assert res.iterations == iterations
    assert res.message == message
    return res


class TestOneDriveMatchesPerSweepIteration:
    @pytest.mark.parametrize(
        "splitting_cls", [JacobiSplitting, GaussSeidelSplitting, ExactSplitting]
    )
    @pytest.mark.parametrize("seed", [3, 19])
    def test_generic_splittings(self, splitting_cls, seed):
        lcp = random_hplus_lcp(12, seed)
        _assert_matches_oracle(
            lcp, lambda: splitting_cls(lcp.A),
            MMSIMOptions(tol=1e-12, residual_tol=1e-9),
        )

    @pytest.mark.parametrize("superlu", [False, True])
    def test_legalization_splitting(self, superlu):
        lq, lcp = _legalization_lcp()

        def make():
            spl = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
            # The resilience ladder's safe-rung splitting (SuperLU blocks).
            return LegalizationSplitting._superlu(spl) if superlu else spl

        res = _assert_matches_oracle(
            lcp, make, MMSIMOptions(tol=1e-6, residual_tol=1e-4)
        )
        assert res.converged and res.iterations > 10

    @pytest.mark.parametrize("seed", STALL_SEEDS)
    def test_two_cycle_rescue_schedule(self, seed):
        lq = _stall_instance(seed)
        res = _assert_matches_oracle(
            lq.qp.kkt_lcp(),
            lambda: LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam),
            MMSIMOptions(tol=1e-8, residual_tol=1e-6),
        )
        assert "rescued" in res.message

    def test_explicit_damping(self):
        lq, lcp = _legalization_lcp()
        _assert_matches_oracle(
            lcp,
            lambda: LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam),
            MMSIMOptions(tol=1e-6, residual_tol=1e-4, damping=0.6),
        )

    def test_z0_warm_start(self):
        lq, lcp = _legalization_lcp()

        def make():
            return LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)

        cold = mmsim_solve(lcp, make(), MMSIMOptions(tol=1e-4))
        z0 = cold.z + 1e-3
        _assert_matches_oracle(
            lcp, make, MMSIMOptions(tol=1e-6, residual_tol=1e-4), z0=z0
        )

    @pytest.mark.parametrize(
        "budget", ["1", "2", "window", "window+1", "2*window+1"]
    )
    def test_budget_edges(self, budget):
        # A 2-cycling instance with a short window: the budgets land on
        # and just past the first stall checkpoint, and one sweep past
        # the second, where the rescue fires.
        window = 40
        max_iterations = {
            "1": 1, "2": 2, "window": window, "window+1": window + 1,
            "2*window+1": 2 * window + 1,
        }[budget]
        lq = _stall_instance(STALL_SEEDS[0])
        res = _assert_matches_oracle(
            lq.qp.kkt_lcp(),
            lambda: LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam),
            MMSIMOptions(
                tol=1e-8, residual_tol=1e-6, stall_window=window,
                max_iterations=max_iterations,
            ),
        )
        assert res.iterations == max_iterations


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_mmsim_solution_satisfies_lcp_conditions(seed):
    """Property: any converged MMSIM run satisfies all three LCP conditions."""
    lcp = random_hplus_lcp(6, seed)
    res = mmsim_solve(
        lcp, GaussSeidelSplitting(lcp.A), MMSIMOptions(tol=1e-12, residual_tol=1e-9)
    )
    assert res.converged
    z = res.z
    w = lcp.w_of(z)
    assert np.all(z >= -1e-8)
    assert np.all(w >= -1e-7)
    assert abs(z @ w) < 1e-5
