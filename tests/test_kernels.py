"""Tests for the kernel backends: one sweep, two convergence-check cadences.

``LegalizerConfig.kernel_backend`` sets ``MMSIMOptions.block``:
``reference`` tests convergence after every sweep, ``fused`` every
``FUSED_BLOCK`` sweeps.  Both drives run the one
:class:`~repro.kernels.reference.ReferenceSweepRunner`.  The contracts:

* the preallocated fused sweep (:mod:`fused_oracle`) equals the
  reference sweep bit for bit, for one sweep or many, every damping
  shape and every block kernel a splitting can carry, across the switch
  from the first sweep's four matvecs to the stacked operator K, which
  itself equals those four matvecs bit for bit;
* ``kernel_backend="fused"`` reproduces a whole flow run on that fused
  sweep bit for bit (``kkt_solution``, ``iterations``, positions):
  sharded, ``shard=False``, on a ``ReuseCache`` hit and in a stacked
  ``legalize_many`` solve;
* the backend is not part of a splitting, so a ``ReuseCache`` serves a
  run under either backend;
* the domain is exactly ``reference`` and ``fused``: the config, the
  service and the CLI reject anything else.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from fused_oracle import FusedSweepRunner, install
from repro import cli, telemetry
from repro.benchgen import generate_benchmark
from repro.core.legalizer import FUSED_BLOCK, LegalizerConfig, MMSIMLegalizer
from repro.core.multi import DesignJob, legalize_many
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.setup_cache import ReuseCache
from repro.core.sharding import shard_legalization_qp
from repro.core.splitting import LegalizationSplitting, SplittingParameters
from repro.core.subcells import split_cells
from repro.io.jsonio import save_design
from repro.kernels import (
    PROBE_CACHE_CAP,
    ReferenceSweepRunner,
    csr_matvec_into,
    probe_cache_size,
    probe_vector,
    reference,
)
from repro.qp import GeneralSplitting
from repro.scenario.specs import LEGALIZER_SPEC
from repro.service.protocol import LegalizeRequest, ProtocolError
from test_mmsim_stall_rescue import _stall_instance
from test_service import running_server

DOMAIN = ("reference", "fused")


def _splitting():
    design = generate_benchmark("fft_2", scale=0.03, seed=2)
    legal_qp = build_legalization_qp(
        design, split_cells(design, assign_rows(design))
    )
    qp = legal_qp.qp
    return LegalizationSplitting(
        qp.H, qp.B, legal_qp.E, legal_qp.lam, params=SplittingParameters()
    )


def _shard_splitting(bottom_kernel):
    """The largest shard of fft_2@0.02 + 15% blockages at
    ``min_shard_variables=1`` whose bottom kernel is *bottom_kernel*: a
    block view of the design-wide splitting."""
    design = _blocked(scale=0.02)
    legal_qp = build_legalization_qp(
        design, split_cells(design, assign_rows(design))
    )
    shards = shard_legalization_qp(legal_qp, min_shard_variables=1).shards
    return max(
        (sh.splitting for sh in shards
         if sh.splitting.bottom_kernel == bottom_kernel),
        key=lambda spl: spl.n,
    )


def _foreign_top():
    """An H the Woodbury probe declines: a SuperLU top over ``pttrs``."""
    spl = _splitting()
    H = spl.H + 0.5 * sp.identity(spl.n, format="csr")
    return LegalizationSplitting(H, spl.B, spl.E, spl.lam)


def _gttrs_bottom():
    """A stall instance whose indefinite D makes ``D/θ* + I``
    indefinite at θ* = 0.05, so ``pttrf`` fails and ``gttrs`` wins."""
    lq = _stall_instance(53)
    return LegalizationSplitting(
        lq.qp.H, lq.qp.B, lq.E, lq.lam, SplittingParameters(theta=0.05)
    )


def _general():
    """The generic-QP splitting: no (E, λ), so a SuperLU top."""
    spl = _splitting()
    return GeneralSplitting(spl.H, spl.B)


#: Every (top, bottom) kernel pair the sweep runs over.
SPLITTINGS = {
    "woodbury/pttrs": _splitting,
    "woodbury/none (m = 0 block)": lambda: _shard_splitting("none"),
    "woodbury/scalar (m = 1 block)": lambda: _shard_splitting("scalar"),
    "woodbury/gttrs": _gttrs_bottom,
    "superlu/pttrs (probe declined the top)": _foreign_top,
    "superlu/superlu (_superlu)": lambda: LegalizationSplitting._superlu(
        _splitting()
    ),
    "superlu/pttrs (GeneralSplitting)": _general,
}


def _omega(shape, size):
    if shape == "array":
        return np.where(np.arange(size) % 2 == 0, 1.0, 0.6)
    return {"plain": None, "scalar": 0.7}[shape]


def _positions(design):
    return np.array(
        [(c.x, c.y) for c in design.movable_cells], dtype=float
    )


def _assert_same_run(a, b):
    """Two (design, result) runs with equal bits."""
    (da, ra), (db, rb) = a, b
    assert ra.kkt_solution.tobytes() == rb.kkt_solution.tobytes()
    assert ra.iterations == rb.iterations
    assert _positions(da).tobytes() == _positions(db).tobytes()


def _blocked(seed=3, scale=0.05):
    return generate_benchmark(
        "fft_2", scale=scale, seed=seed, blockage_fraction=0.15
    )


# ----------------------------------------------------------------------
# The domain
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        domain = LEGALIZER_SPEC.var("kernel_backend").domain
        assert domain.choices == DOMAIN

    def test_get_backend_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="fused.*reference"):
            LegalizerConfig(kernel_backend="nope")

    def test_reference_arms_no_runner(self):
        assert not hasattr(_splitting(), "sweep_runner")
        assert MMSIMLegalizer(LegalizerConfig()).solver_options().block == 1

    def test_fused_checks_every_block(self):
        opts = MMSIMLegalizer(
            LegalizerConfig(kernel_backend="fused")
        ).solver_options()
        assert opts.block == FUSED_BLOCK == 8


# ----------------------------------------------------------------------
# Sweep arithmetic parity
# ----------------------------------------------------------------------
class TestSweepParity:
    @pytest.mark.parametrize("omega", [None, 1.0, 0.7])
    def test_fused_single_sweep_matches_reference(self, omega):
        sp_ = _splitting()
        size = sp_.n + sp_.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = ReferenceSweepRunner(sp_).run(s, 1, gq, omega)
        got = FusedSweepRunner(sp_).run(s, 1, gq, omega)
        assert got.tobytes() == want.tobytes()

    def test_fused_multi_sweep_matches_iterated_reference(self):
        sp_ = _splitting()
        size = sp_.n + sp_.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = ReferenceSweepRunner(sp_).run(s, 5, gq)
        got = FusedSweepRunner(sp_).run(s, 5, gq)
        assert got.tobytes() == want.tobytes()

    def test_fused_array_omega_matches_reference(self):
        sp_ = _splitting()
        size = sp_.n + sp_.m
        rng = np.random.default_rng(5)
        omega = np.where(rng.random(size) < 0.5, 1.0, 0.6)
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = ReferenceSweepRunner(sp_).run(s, 3, gq, omega)
        got = FusedSweepRunner(sp_).run(s, 3, gq, omega)
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# The lean sweep: every kernel, the stacked operator, the buffers
# ----------------------------------------------------------------------
class TestLeanSweep:
    @pytest.mark.parametrize("kind", SPLITTINGS)
    def test_kernels_actually_taken(self, kind):
        spl = SPLITTINGS[kind]()
        top, bottom = kind.split(" ")[0].split("/")
        assert (spl.top_kernel, spl.bottom_kernel) == (top, bottom)
        assert spl.m == {"none": 0, "scalar": 1}.get(bottom, spl.m)

    @pytest.mark.skipif(
        reference._csr_hstack is None, reason="scipy without csr_hstack"
    )
    @pytest.mark.parametrize("kind", SPLITTINGS)
    def test_stacked_operator_equals_four_matvecs(self, kind):
        """The kernel assumption K rests on: ``csr_matvec`` accumulates a
        row's stored entries in order onto the output's value, so one
        matvec of K over ``[s, |s|, u, w]`` equals the four sequential
        ``csr_matvec_into`` calls bit for bit."""
        spl = SPLITTINGS[kind]()
        n, size = spl.n, spl.n + spl.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        t = np.abs(s)
        u = s[:n] * (1.0 / spl.params.beta - 1.0) - t[:n]
        w = s[n:] + t[n:]
        want = t - gq
        csr_matvec_into(spl.H, u, want[:n])
        csr_matvec_into(spl.BT, w, want[:n])
        csr_matvec_into(spl._D_theta, s[n:], want[n:])
        csr_matvec_into(spl._B_neg, t[:n], want[n:])
        K = reference.rhs_operator(spl)
        assert K.shape == (size, 3 * size)
        assert K.nnz == spl.H.nnz + spl.BT.nnz + spl.D.nnz + spl.B.nnz
        got = t - gq
        csr_matvec_into(K, np.concatenate([s, t, u, w]), got)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", ["plain", "scalar", "array"])
    @pytest.mark.parametrize("kind", SPLITTINGS)
    def test_sweeps_equal_oracle(self, kind, shape):
        """Three sweeps (the first on four matvecs, then K) equal the
        fused oracle bit for bit; the runner's |s| is that of the
        iterate it returns, and the caller's s is only read."""
        spl = SPLITTINGS[kind]()
        size = spl.n + spl.m
        s = np.array(probe_vector(size))
        before = s.copy()
        gq = probe_vector(size, salt=3)
        omega = _omega(shape, size)
        runner = ReferenceSweepRunner(spl)
        got = runner.run(s, 3, gq, omega)
        want = FusedSweepRunner(spl).run(s, 3, gq, omega)
        assert got.tobytes() == want.tobytes()
        assert runner.s_abs.tobytes() == np.abs(want).tobytes()
        assert s.tobytes() == before.tobytes()

    @pytest.mark.skipif(
        reference._csr_hstack is None, reason="scipy without csr_hstack"
    )
    def test_switch_to_stacked_operator_across_runs(self):
        """One sweep builds no K; continuing from the runner's own
        iterate builds it and lands on the oracle's third iterate."""
        spl = _splitting()
        size = spl.n + spl.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        runner = ReferenceSweepRunner(spl)
        first = runner.run(s, 1, gq, 0.7)
        assert runner._K is None
        assert first.tobytes() == FusedSweepRunner(spl).run(
            s, 1, gq, 0.7
        ).tobytes()
        got = runner.run(first, 2, gq, 0.7)
        assert got is first  # the runner's own buffer, advanced in place
        assert runner._K is not None
        want = FusedSweepRunner(spl).run(s, 3, gq, 0.7)
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Whole flows against the fused-sweep oracle
# ----------------------------------------------------------------------
class TestFusedOracle:
    @pytest.mark.parametrize("shard", [True, False])
    def test_legalize_equals_oracle(self, shard, monkeypatch):
        cfg = LegalizerConfig(kernel_backend="fused", shard=shard)

        def run():
            design = _blocked()
            return design, MMSIMLegalizer(cfg).legalize(design)

        got = run()
        install(monkeypatch)
        _assert_same_run(got, run())

    def test_reuse_hit_equals_oracle(self, monkeypatch):
        legalizer = MMSIMLegalizer(LegalizerConfig(kernel_backend="fused"))

        def rerun():
            reuse = ReuseCache()
            legalizer.legalize(_blocked(), reuse=reuse)
            design = _blocked()
            result = legalizer.legalize(design, reuse=reuse)
            assert reuse.stats["hit"] > 0 and reuse.stats["stale"] == 0
            return design, result

        got = rerun()
        install(monkeypatch)
        _assert_same_run(got, rerun())

    def test_stack_equals_oracle(self, monkeypatch):
        cfg = LegalizerConfig(kernel_backend="fused")

        def run():
            designs = [_blocked(seed) for seed in (3, 4)]
            results = legalize_many(
                [DesignJob(design=d, config=cfg) for d in designs]
            )
            return list(zip(designs, results))

        got = run()
        install(monkeypatch)
        for a, b in zip(got, run()):
            _assert_same_run(a, b)

    def test_fused_rerun_after_reference_hits_every_shard(self):
        """A splitting carries no backend: a fused run takes the setups a
        reference run left in the cache, and lands on a cold fused run's
        bits."""
        reuse = ReuseCache()
        MMSIMLegalizer(LegalizerConfig()).legalize(_blocked(), reuse=reuse)
        misses = reuse.stats["miss"]
        fused = MMSIMLegalizer(LegalizerConfig(kernel_backend="fused"))
        design = _blocked()
        result = fused.legalize(design, reuse=reuse)
        assert reuse.stats["hit"] == misses
        assert reuse.stats["miss"] == misses and reuse.stats["stale"] == 0
        cold = _blocked()
        _assert_same_run((design, result), (cold, fused.legalize(cold)))


# ----------------------------------------------------------------------
# Config / protocol / CLI plumbing
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            LegalizerConfig(kernel_backend="bogus")

    def test_config_accepts_all_registered_names(self):
        for name in DOMAIN:
            assert LegalizerConfig(kernel_backend=name).kernel_backend == name

    def test_protocol_rejects_unknown_backend(self):
        with pytest.raises(ProtocolError, match="kernel_backend"):
            LegalizeRequest.from_dict(
                {"design": {}, "config": {"kernel_backend": "bogus"}}
            )

    def test_numba_rejected_by_config(self):
        with pytest.raises(ValueError, match="kernel_backend: must be one of"):
            LegalizerConfig(kernel_backend="numba")

    def test_numba_rejected_by_service_before_queueing(self):
        request = LegalizeRequest(
            design=generate_benchmark("fft_2", scale=0.01, seed=7),
            config={"kernel_backend": "numba"},
        )
        with running_server() as (server, client, _):
            status, payload, _ = client._http(
                "POST", "/legalize", request.to_dict()
            )
            assert status == 400 and "kernel_backend" in payload["error"]
            assert server.metrics.counter("service.batches").value == 0
            assert server._queue.qsize() == 0

    def test_numba_rejected_by_cli(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "d.json")
        save_design(generate_benchmark("fft_2", scale=0.01, seed=7), path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["legalize", path, "--kernel-backend", "numba"])
        assert exc.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Probe-vector cache
# ----------------------------------------------------------------------
class TestProbeCache:
    def test_deterministic_and_salted(self):
        a = probe_vector(17)
        b = probe_vector(17)
        c = probe_vector(17, salt=1)
        assert a is b  # a hit returns the cached array itself
        assert not np.array_equal(a, c)
        assert not a.flags.writeable

    def test_cache_is_capped(self):
        base = probe_cache_size()
        for size in range(1, PROBE_CACHE_CAP + 50):
            probe_vector(size, salt=987)
        assert probe_cache_size() <= PROBE_CACHE_CAP
        assert probe_cache_size() >= min(base + 1, PROBE_CACHE_CAP)


# ----------------------------------------------------------------------
# End-to-end tolerance-class parity
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("batch", [False, True])
    def test_fused_positions_within_tolerance_class(self, batch):
        """``batch=True`` stacks two designs through ``legalize_many``,
        so the fused backend runs inside the batched engine."""
        seeds = (3, 4) if batch else (3,)

        def run(backend):
            designs = [
                generate_benchmark(
                    "fft_2", scale=0.05, seed=s, blockage_fraction=0.2
                )
                for s in seeds
            ]
            results = legalize_many(
                [
                    DesignJob(
                        design=d,
                        config=LegalizerConfig(kernel_backend=backend),
                    )
                    for d in designs
                ]
            )
            return designs, results

        d_ref, r_ref = run("reference")
        d_fused, r_fused = run("fused")
        site = d_ref[0].core.site_width
        assert all(r.audit_clean for r in r_ref + r_fused)
        # Tolerance class: the same sweeps, convergence tested every
        # FUSED_BLOCK sweeps — after site snapping a borderline cell may
        # land one site over (docs/PERFORMANCE.md §5).
        for a, b in zip(d_ref, d_fused):
            diff = np.max(np.abs(_positions(a) - _positions(b)))
            assert diff <= site + 1e-9

    def test_fused_monolithic_converges_like_reference(self):
        d_ref = generate_benchmark("fft_2", scale=0.03, seed=7)
        d_fused = generate_benchmark("fft_2", scale=0.03, seed=7)
        r_ref = MMSIMLegalizer(
            LegalizerConfig(shard=False)
        ).legalize(d_ref)
        r_fused = MMSIMLegalizer(
            LegalizerConfig(shard=False, kernel_backend="fused")
        ).legalize(d_fused)
        assert r_fused.converged == r_ref.converged
        # Blocked stopping may overshoot by at most one block per
        # rescue window boundary; in practice a handful of sweeps.
        assert abs(r_fused.iterations - r_ref.iterations) <= 2 * FUSED_BLOCK

    def test_backend_recorded_in_telemetry(self):
        design = generate_benchmark("fft_2", scale=0.03, seed=4)
        with telemetry.session() as tel:
            MMSIMLegalizer(
                LegalizerConfig(kernel_backend="fused")
            ).legalize(design)
        assert tel.metrics.gauge("kernel.backend.fused").value == 1.0
