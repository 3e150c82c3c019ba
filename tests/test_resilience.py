"""Tests for the per-shard solver fallback chain (repro.core.resilience).

Deterministic fault injection lets CI walk every rung of the escalation
ladder on healthy designs, so the guarantees are testable without
hunting for pathological inputs:

- with no injected fault, the ladder hands every shard's plain MMSIM
  result through bit-identically;
- with MMSIM forced to fail on every shard, the flow still terminates
  with a clean legality audit and one telemetry escalation event per
  failed shard;
- each rung (mmsim_safe, psor, lemke, clamp) wins when every rung above
  it is injected to fail, and every accepted fallback clears the
  natural-residual audit on the shard's own KKT LCP.
"""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.cli import main as cli_main
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.qp_builder import build_legalization_qp
from repro.core.resilience import (
    RUNGS,
    ResilienceConfig,
    ShardEscalation,
    RungAttempt,
    solve_shard_resilient,
)
from repro.core.row_assign import assign_rows
from repro.core.sharding import shard_legalization_qp, solve_sharded
from repro.core.subcells import split_cells
from repro.io import save_design
from repro.lcp import MMSIMOptions, mmsim_solve


def _design(scale=0.02, seed=0):
    return generate_benchmark("fft_2", scale=scale, seed=seed)


def _sharded(scale=0.02, seed=0, min_shard_variables=32):
    design = _design(scale=scale, seed=seed)
    model = split_cells(design, assign_rows(design))
    lq = build_legalization_qp(design, model)
    return shard_legalization_qp(lq, min_shard_variables=min_shard_variables)


# ----------------------------------------------------------------------
# Config validation + injection predicate
# ----------------------------------------------------------------------
class TestResilienceConfig:
    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown rung"):
            ResilienceConfig(inject={0: ("newton",)})

    def test_clamp_cannot_be_injected(self):
        with pytest.raises(ValueError, match="clamp"):
            ResilienceConfig(inject={0: ("clamp",)})

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError, match="inject keys"):
            ResilienceConfig(inject={"shard-3": ("mmsim",)})

    def test_should_fail_int_key(self):
        cfg = ResilienceConfig(inject={3: ("mmsim", "psor")})
        assert cfg.should_fail(3, "mmsim")
        assert cfg.should_fail(3, "psor")
        assert not cfg.should_fail(3, "lemke")
        assert not cfg.should_fail(2, "mmsim")

    def test_should_fail_wildcard(self):
        cfg = ResilienceConfig(inject={"*": ("mmsim",)})
        assert all(cfg.should_fail(i, "mmsim") for i in range(5))
        assert not cfg.should_fail(0, "mmsim_safe")

    def test_no_injection_by_default(self):
        cfg = ResilienceConfig()
        assert not any(cfg.should_fail(0, r) for r in RUNGS[:-1])

    def test_only_caller_set_fields_remain(self):
        # The rungs' other parameters are module constants; the accept
        # bound always derives from the MMSIM options.
        assert [f.name for f in dataclasses.fields(ResilienceConfig)] == [
            "inject", "safe_iteration_factor",
        ]
        for name in ("psor_max_constraints", "accept_tol", "safe_damping"):
            with pytest.raises(TypeError, match=name):
                ResilienceConfig(**{name: 0})


class TestShardEscalation:
    def test_winner_and_solved(self):
        esc = ShardEscalation(0, 4, 2)
        esc.attempts.append(RungAttempt("mmsim", "injected"))
        esc.attempts.append(RungAttempt("mmsim_safe", "won"))
        assert esc.winner == "mmsim_safe"
        assert esc.solved

    def test_clamp_when_nothing_won(self):
        esc = ShardEscalation(1, 4, 2)
        esc.attempts.append(RungAttempt("mmsim", "failed"))
        assert esc.winner == "clamp"
        assert not esc.solved

    def test_summary_shows_trail(self):
        esc = ShardEscalation(2, 4, 2)
        esc.attempts.append(RungAttempt("mmsim", "injected"))
        esc.attempts.append(RungAttempt("psor", "won"))
        assert esc.summary() == "shard 2: mmsim[injected] -> psor[won]"

    def test_primary_iterations_read_rung_one(self):
        esc = ShardEscalation(3, 4, 2)
        esc.attempts.append(RungAttempt("mmsim", "failed", iterations=7))
        esc.attempts.append(RungAttempt("psor", "won", iterations=90))
        assert esc.primary_iterations == 7
        esc = ShardEscalation(4, 4, 2)
        esc.attempts.append(RungAttempt("mmsim", "injected"))
        esc.attempts.append(RungAttempt("mmsim_safe", "won", iterations=40))
        assert esc.primary_iterations == 0


# ----------------------------------------------------------------------
# The ladder on one shard
# ----------------------------------------------------------------------
class TestShardLadder:
    @pytest.fixture(scope="class")
    def shard(self):
        sk = _sharded(scale=0.02, seed=0)
        # Pick the largest shard so every rung has real work to do.
        return max(sk.shards, key=lambda s: len(s.variables))

    def test_healthy_shard_is_bit_identical(self, shard):
        opts = MMSIMOptions()
        plain = mmsim_solve(shard.lcp, shard.splitting, opts)
        resilient, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting, opts
        )
        assert escalation is None
        assert plain.converged
        np.testing.assert_array_equal(resilient.z, plain.z)
        assert resilient.message == plain.message

    @pytest.mark.parametrize(
        "inject, expect_winner",
        [
            (("mmsim",), "mmsim_safe"),
            (("mmsim", "mmsim_safe"), "psor"),
            (("mmsim", "mmsim_safe", "psor"), "lemke"),
            (("mmsim", "mmsim_safe", "psor", "lemke"), "clamp"),
        ],
    )
    def test_each_rung_wins_in_turn(self, shard, inject, expect_winner):
        cfg = ResilienceConfig(inject={0: inject})
        result, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting, config=cfg, shard_index=0
        )
        assert escalation is not None
        assert escalation.winner == expect_winner
        # Every injected rung is recorded, in ladder order.
        trail = [a.rung for a in escalation.attempts]
        assert trail == list(inject) + [expect_winner]
        statuses = {a.rung: a.status for a in escalation.attempts}
        assert all(statuses[r] == "injected" for r in inject)
        assert statuses[expect_winner] == "won"

    def test_fallback_wins_clear_the_audit(self, shard):
        opts = MMSIMOptions()
        accept_tol = opts.residual_tol or opts.tol
        for inject in (("mmsim",), ("mmsim", "mmsim_safe"),
                       ("mmsim", "mmsim_safe", "psor")):
            cfg = ResilienceConfig(inject={0: inject})
            result, escalation = solve_shard_resilient(
                shard.lcp, shard.splitting, opts, config=cfg
            )
            assert escalation.solved
            assert result.converged
            assert shard.lcp.natural_residual(result.z) <= accept_tol
            assert "fallback" in result.message

    def test_clamp_returns_presolve_positions(self, shard):
        cfg = ResilienceConfig(
            inject={0: ("mmsim", "mmsim_safe", "psor", "lemke")}
        )
        result, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting, config=cfg
        )
        n = shard.splitting.n
        np.testing.assert_array_equal(
            result.z[:n], np.maximum(-shard.lcp.q[:n], 0.0)
        )
        np.testing.assert_array_equal(result.z[n:], 0.0)
        assert not result.converged
        assert result.solver == "clamp"
        assert not escalation.solved

    def test_oversize_shard_skips_psor_and_lemke(self, shard, monkeypatch):
        import repro.core.resilience as resilience

        monkeypatch.setattr(resilience, "PSOR_MAX_CONSTRAINTS", 0)
        monkeypatch.setattr(resilience, "LEMKE_MAX_VARIABLES", 0)
        cfg = ResilienceConfig(inject={0: ("mmsim", "mmsim_safe")})
        result, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting, config=cfg
        )
        statuses = {a.rung: a.status for a in escalation.attempts}
        assert statuses["psor"] == "skipped"
        assert statuses["lemke"] == "skipped"
        assert escalation.winner == "clamp"

    def test_psor_sweeps_capped_by_work_budget(self, shard, monkeypatch):
        # A sweep is a Python pass over the m dual rows, so rung 3 may
        # sweep at most PSOR_WORK_BUDGET // m times whatever
        # PSOR_MAX_ITERATIONS allows.
        import repro.core.resilience as resilience

        m = shard.num_constraints
        monkeypatch.setattr(resilience, "PSOR_WORK_BUDGET", 3 * m + 1)
        cfg = ResilienceConfig(inject={0: ("mmsim", "mmsim_safe")})
        _, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting, config=cfg
        )
        psor = next(a for a in escalation.attempts if a.rung == "psor")
        assert psor.status == "failed"
        assert psor.iterations == 3
        assert psor.detail.startswith("sweep cap 3 = min(")

    def test_capped_psor_wins_on_its_audit(self, shard, monkeypatch):
        """A rung stopped at its sweep cap is accepted when its candidate
        clears the accept bound (the MMSIM options' residual_tol), and
        reported converged like any other win."""
        import repro.core.resilience as resilience

        m = shard.num_constraints
        monkeypatch.setattr(resilience, "PSOR_WORK_BUDGET", 3 * m + 1)
        capped = resilience._psor_rung(
            shard.lcp, shard.splitting, shard.splitting.n, 3
        )
        assert not capped.converged
        residual = shard.lcp.natural_residual(capped.z)
        config = ResilienceConfig(inject={0: ("mmsim", "mmsim_safe")})

        result, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting,
            MMSIMOptions(residual_tol=residual), config=config,
        )
        psor = escalation.attempts[-1]
        assert (psor.rung, psor.status, psor.iterations) == ("psor", "won", 3)
        assert escalation.winner == "psor"
        assert result.converged
        np.testing.assert_array_equal(result.z, capped.z)

        _, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting,
            MMSIMOptions(residual_tol=0.5 * residual), config=config,
        )
        psor = next(a for a in escalation.attempts if a.rung == "psor")
        assert psor.status == "failed"

    def test_psor_solves_constraint_free_shard(self):
        from repro.core.resilience import PSOR_MAX_ITERATIONS, _psor_rung

        design = generate_benchmark(
            "fft_2", scale=0.02, seed=1, blockage_fraction=0.2
        )
        lq = build_legalization_qp(design, split_cells(design, assign_rows(design)))
        sk = shard_legalization_qp(lq, min_shard_variables=1)
        shard = next(s for s in sk.shards if s.num_constraints == 0)
        n = shard.splitting.n
        result = _psor_rung(shard.lcp, shard.splitting, n, PSOR_MAX_ITERATIONS)
        assert result.converged
        # No multipliers: the clamped unconstrained minimizer H⁻¹(−p).
        np.testing.assert_allclose(
            result.z,
            np.maximum(
                np.linalg.solve(shard.splitting.H.toarray(), -shard.lcp.q), 0.0
            ),
        )
        _, escalation = solve_shard_resilient(
            shard.lcp,
            shard.splitting,
            config=ResilienceConfig(inject={0: ("mmsim", "mmsim_safe")}),
            shard_index=0,
        )
        assert escalation.winner == "psor"

    def test_raising_primary_escalates(self, shard, monkeypatch):
        import repro.core.resilience as resilience

        calls = {"n": 0}
        real = resilience.mmsim_solve

        def boom(lcp, splitting, opts, s0=None, z0=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FloatingPointError("kernel blew up")
            return real(lcp, splitting, opts, s0=s0, z0=z0)

        monkeypatch.setattr(resilience, "mmsim_solve", boom)
        result, escalation = solve_shard_resilient(
            shard.lcp, shard.splitting
        )
        assert escalation is not None
        assert escalation.attempts[0].status == "raised"
        assert "FloatingPointError" in escalation.attempts[0].detail
        assert escalation.winner == "mmsim_safe"
        assert result.converged

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_safe_rung_runs_superlu_without_runner(self, backend, monkeypatch):
        """Rung 2 retries on SuperLU factorizations of both block solves
        and tests convergence after every sweep, whatever the primary's
        cadence."""
        import repro.core.resilience as resilience

        seen = []
        real = resilience.mmsim_solve

        def spy(lcp, splitting, opts, s0=None, z0=None):
            seen.append((splitting, opts))
            return real(lcp, splitting, opts, s0=s0, z0=z0)

        monkeypatch.setattr(resilience, "mmsim_solve", spy)
        design = _design()
        model = split_cells(design, assign_rows(design))
        lq = build_legalization_qp(design, model)
        sk = shard_legalization_qp(lq, min_shard_variables=32)
        shard = max(sk.shards, key=lambda sh: sh.num_constraints)
        primary = shard.splitting
        assert (primary.top_kernel, primary.bottom_kernel) == (
            "woodbury", "pttrs"
        )
        opts = MMSIMLegalizer(
            LegalizerConfig(kernel_backend=backend)
        ).solver_options()
        assert opts.block == (8 if backend == "fused" else 1)
        result, escalation = solve_shard_resilient(
            shard.lcp,
            primary,
            opts,
            config=ResilienceConfig(inject={0: ("mmsim",)}),
        )
        assert escalation.winner == "mmsim_safe"
        assert result.converged
        ((safe, safe_opts),) = seen
        assert safe is not primary
        assert safe.top_kernel == safe.bottom_kernel == "superlu"
        assert safe._H_inv_top is None
        assert safe_opts.block == 1


# ----------------------------------------------------------------------
# Sharded entry point (shard=False is its one-shard case) + telemetry
# ----------------------------------------------------------------------
class TestShardedResilient:
    def test_healthy_matches_plain_sharded(self):
        """Healthy shards keep their plain MMSIM answer, bit for bit."""
        sk = _sharded()
        opts = MMSIMOptions()
        result, escalations = solve_sharded(sk, opts)
        assert escalations == []
        assert result.converged
        assert result.message == ""
        z = np.zeros(sk.n + sk.m)
        for shard in sk.shards:
            plain = mmsim_solve(shard.lcp, shard.splitting, opts)
            z[shard.variables] = plain.z[: shard.num_variables]
            z[sk.n + shard.b_rows] = plain.z[shard.num_variables :]
        np.testing.assert_array_equal(result.z, z)

    def test_inject_all_shards(self):
        sk = _sharded()
        resilient, escalations = solve_sharded(
            sk, config=ResilienceConfig(inject={"*": ("mmsim",)})
        )
        assert len(escalations) == len(sk.shards)
        assert [e.shard_index for e in escalations] == list(range(len(sk.shards)))
        assert all(e.winner == "mmsim_safe" for e in escalations)
        assert "escalated past mmsim" in resilient.message

    @pytest.mark.parametrize("batch", [False, True])
    def test_iterations_count_primary_sweeps_only(self, batch):
        """``iterations`` is the largest primary (rung 1) MMSIM sweep
        count, whichever rung won: 0 when every primary is injected,
        while mmsim_safe's own sweeps stay in the escalation record."""
        sk = _sharded()
        result, escalations = solve_sharded(
            sk, config=ResilienceConfig(inject={"*": ("mmsim",)}), batch=batch
        )
        assert {e.winner for e in escalations} == {"mmsim_safe"}
        assert min(e.attempts[1].iterations for e in escalations) > 0
        assert result.iterations == 0

    def test_iterations_of_failed_primaries(self):
        """Primaries stopped at a 3-sweep cap report 3, not the sweeps of
        the rung that then won."""
        sk = _sharded()
        result, escalations = solve_sharded(sk, MMSIMOptions(max_iterations=3))
        assert len(escalations) == len(sk.shards)
        assert {e.primary_iterations for e in escalations} == {3}
        assert max(e.attempts[-1].iterations for e in escalations) > 3
        assert result.iterations == 3

    def test_monolithic_path(self):
        """``shard=False`` walks the ladder on its one shard, index 0."""
        result = MMSIMLegalizer(
            LegalizerConfig(
                shard=False,
                resilience=ResilienceConfig(inject={0: ("mmsim",)}),
            )
        ).legalize(_design())
        escalations = result.solver_escalations
        assert len(escalations) == 1
        assert escalations[0].shard_index == 0
        assert escalations[0].winner == "mmsim_safe"
        assert result.converged

    def test_one_telemetry_event_per_escalated_shard(self):
        sk = _sharded()
        with telemetry.session() as tel:
            _, escalations = solve_sharded(
                sk, config=ResilienceConfig(inject={"*": ("mmsim",)})
            )
        events = tel.solver_events.events(kind="escalation")
        assert len(events) == len(escalations) == len(sk.shards)
        assert {e["shard"] for e in events} == {
            esc.shard_index for esc in escalations
        }
        assert tel.metrics.counter("resilience.escalated_shards").value == len(
            sk.shards
        )
        assert tel.metrics.counter("resilience.win.mmsim_safe").value == len(
            sk.shards
        )


# ----------------------------------------------------------------------
# Full flow: the acceptance criteria
# ----------------------------------------------------------------------
class TestFullFlow:
    def test_injection_disabled_is_bit_identical(self):
        """With nothing injected the flow's KKT solution is the plain
        per-shard MMSIM answer from the GP seed."""
        design = _design()
        legalizer = MMSIMLegalizer()
        result = legalizer.legalize(design)
        assert result.solver_escalations == []
        assert result.audit_clean

        prepared = legalizer.prepare(_design())
        legalizer.build_systems(prepared)
        sk = prepared.sharded
        opts = legalizer.solver_options()
        z = np.zeros(sk.n + sk.m)
        for shard in sk.shards:
            s0 = np.concatenate(
                [prepared.s0[shard.variables], prepared.s0[sk.n + shard.b_rows]]
            )
            plain = mmsim_solve(shard.lcp, shard.splitting, opts, s0=s0)
            z[shard.variables] = plain.z[: shard.num_variables]
            z[sk.n + shard.b_rows] = plain.z[shard.num_variables :]
        np.testing.assert_array_equal(result.kkt_solution, z)

    def test_mmsim_failing_everywhere_stays_legal(self):
        design = _design()
        config = LegalizerConfig(
            resilience=ResilienceConfig(inject={"*": ("mmsim",)})
        )
        with telemetry.session() as tel:
            result = MMSIMLegalizer(config).legalize(design)
        assert result.solver_escalations
        assert result.audit_clean
        # No primary MMSIM ran, so no MMSIM sweeps are reported.
        assert result.iterations == 0
        assert "mmsim_iters=0" in result.summary()
        events = tel.solver_events.events(kind="escalation")
        assert len(events) == len(result.solver_escalations)

    def test_all_rungs_failing_no_worse_than_clamp_baseline(self):
        # Force the terminal clamp everywhere: the flow must still emit a
        # fully legal placement, and its displacement must equal the clamp
        # baseline (Tetris legalizing the pre-solve positions directly).
        all_rungs = ("mmsim", "mmsim_safe", "psor", "lemke")
        d_clamped = _design()
        config = LegalizerConfig(
            resilience=ResilienceConfig(inject={"*": all_rungs})
        )
        r_clamped = MMSIMLegalizer(config).legalize(d_clamped)
        assert r_clamped.audit_clean
        assert all(
            e.winner == "clamp" for e in r_clamped.solver_escalations
        )
        assert r_clamped.displacement is not None
        assert np.isfinite(r_clamped.displacement.total_manhattan_sites)

    def test_escalations_in_summary(self):
        design = _design()
        config = LegalizerConfig(
            resilience=ResilienceConfig(inject={0: ("mmsim",)})
        )
        result = MMSIMLegalizer(config).legalize(design)
        assert "escalations=" in result.summary()
        assert "audit=clean" in result.summary()



# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture(scope="class")
    def design_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("resilience") / "design.json"
        save_design(_design(), str(path))
        return str(path)

    def test_fail_on_illegal_passes_on_legal_output(self, design_file, capsys):
        rc = cli_main(["legalize", design_file, "--fail-on-illegal"])
        assert rc == 0
        assert "audit=clean" in capsys.readouterr().out

    def test_no_fallback_flag(self, design_file, capsys):
        """The ladder has no off switch: the flag is a usage error."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["legalize", design_file, "--no-fallback"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-fallback" in (
            capsys.readouterr().err
        )

    def test_fail_on_illegal_exits_2_on_violations(
        self, design_file, monkeypatch, capsys
    ):
        from repro import cli

        class Illegal:
            is_legal = False
            violations = [object()]

            def summary(self):
                return "ILLEGAL (fake)"

        real = MMSIMLegalizer.legalize

        def fake_legalize(self, design, **kwargs):
            result = real(self, design, **kwargs)
            result.legality = Illegal()
            return result

        monkeypatch.setattr(cli.MMSIMLegalizer, "legalize", fake_legalize)
        rc = cli_main(["legalize", design_file, "--fail-on-illegal"])
        assert rc == 2
        assert "error: legality audit" in capsys.readouterr().err
