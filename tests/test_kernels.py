"""Tests for the pluggable sweep-kernel backend registry (repro.kernels).

The registry's load-bearing contracts:

* ``reference`` is the default, arms no runner, and stays bit-identical
  to the pre-registry solver loops.
* Every non-reference backend is probe-gated at arm time: a runner whose
  sweep disagrees with the reference arithmetic is rejected (counted by
  ``kernel.backend_rejected``) and the run silently continues on the
  reference path with identical results.
* An unavailable backend (numba absent) degrades the same way via
  ``kernel.backend_unavailable`` — never an exception.
* The fused (and, when importable, numba) runners reproduce the
  reference sweep arithmetic to ``KERNEL_VERIFY_TOL`` and land final
  placements within the documented "reordered" tolerance class.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.multi import DesignJob, legalize_many
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.setup_cache import scalar_setup_key
from repro.core.splitting import LegalizationSplitting, SplittingParameters
from repro.core.subcells import split_cells
from repro.kernels import (
    DEFAULT_BLOCK,
    KERNEL_VERIFY_TOL,
    PROBE_CACHE_CAP,
    FusedBackend,
    KernelBackend,
    NumbaBackend,
    SweepRunner,
    arm_backend,
    available_backends,
    get_backend,
    known_backend_names,
    probe_cache_size,
    probe_vector,
    reference_sweeps,
    register_backend,
    unregister_backend,
)
from repro.kernels.numba_backend import _sweep_kernel
from repro.service.protocol import LegalizeRequest, ProtocolError


def _legal_qp(scale=0.03, seed=2, **genkw):
    design = generate_benchmark("fft_2", scale=scale, seed=seed, **genkw)
    model = split_cells(design, assign_rows(design))
    return design, build_legalization_qp(design, model)


def _splitting(backend="reference", scale=0.03, seed=2, **genkw):
    _, legal_qp = _legal_qp(scale=scale, seed=seed, **genkw)
    qp = legal_qp.qp
    return LegalizationSplitting(
        qp.H, qp.B, legal_qp.E, legal_qp.lam,
        params=SplittingParameters(),
        kernel_backend=backend,
    )


def _positions(design):
    return np.array(
        [(c.x, c.y) for c in design.movable_cells], dtype=float
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert known_backend_names() == ["fused", "numba", "reference"]

    def test_always_available_backends(self):
        avail = available_backends()
        assert "reference" in avail and "fused" in avail
        # numba availability depends on the environment; the name is
        # selectable either way and must degrade, not raise (tested
        # below in TestDegradation).

    def test_get_backend_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="fused"):
            get_backend("nope")

    def test_register_refuses_shadowing(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(FusedBackend())

    def test_register_unregister_roundtrip(self):
        class Custom(KernelBackend):
            name = "custom-test"

            def build_runner(self, splitting):
                return None

        register_backend(Custom())
        try:
            assert "custom-test" in known_backend_names()
            assert get_backend("custom-test").tolerance_class == "reordered"
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in known_backend_names()

    def test_reference_arms_no_runner(self):
        sp_ = _splitting("reference")
        assert getattr(sp_, "sweep_runner", None) is None

    def test_fused_arms_a_runner(self):
        sp_ = _splitting("fused")
        assert sp_.sweep_runner is not None
        assert sp_.sweep_runner.block == DEFAULT_BLOCK


# ----------------------------------------------------------------------
# Sweep arithmetic parity
# ----------------------------------------------------------------------
class TestSweepParity:
    @pytest.mark.parametrize("omega", [None, 1.0, 0.7])
    def test_fused_single_sweep_matches_reference(self, omega):
        sp_ = _splitting("fused")
        size = sp_.n + sp_.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = reference_sweeps(sp_, s, 1, gq, omega=omega)
        got = sp_.sweep_runner.run(s, 1, gq, omega)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= KERNEL_VERIFY_TOL * scale

    def test_fused_multi_sweep_matches_iterated_reference(self):
        sp_ = _splitting("fused")
        size = sp_.n + sp_.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = reference_sweeps(sp_, s, 5, gq)
        got = sp_.sweep_runner.run(s, 5, gq)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= KERNEL_VERIFY_TOL * scale

    def test_fused_array_omega_matches_reference(self):
        sp_ = _splitting("fused")
        size = sp_.n + sp_.m
        rng = np.random.default_rng(5)
        omega = np.where(rng.random(size) < 0.5, 1.0, 0.6)
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = reference_sweeps(sp_, s, 3, gq, omega=omega)
        got = sp_.sweep_runner.run(s, 3, gq, omega)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= KERNEL_VERIFY_TOL * scale

    @pytest.mark.parametrize("omega", [None, 0.7])
    def test_numba_kernel_python_math_matches_reference(self, omega):
        # The njit-compatible kernel is plain Python until numba compiles
        # it, so its arithmetic is testable with or without numba.
        sp_ = _splitting("reference")
        runner = __import__(
            "repro.kernels.numba_backend", fromlist=["NumbaSweepRunner"]
        ).NumbaSweepRunner(sp_, _sweep_kernel)
        size = sp_.n + sp_.m
        s = probe_vector(size)
        gq = probe_vector(size, salt=3)
        want = reference_sweeps(sp_, s, 4, gq, omega=omega)
        got = runner.run(s, 4, gq, omega)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= KERNEL_VERIFY_TOL * scale


# ----------------------------------------------------------------------
# Probe gate and degradation
# ----------------------------------------------------------------------
class _BrokenRunner(SweepRunner):
    def __init__(self, splitting):
        self._sp = splitting

    def run(self, s, count, gq, omega=None):
        out = reference_sweeps(self._sp, s, count, gq, omega=omega)
        return out + 1e-3  # wrong arithmetic: must be probe-rejected


class _BrokenBackend(KernelBackend):
    name = "broken-test"

    def build_runner(self, splitting):
        return _BrokenRunner(splitting)


class TestProbeGate:
    def test_broken_backend_rejected_at_setup_with_counter(self):
        register_backend(_BrokenBackend())
        try:
            with telemetry.session() as tel:
                sp_ = _splitting("broken-test")
            assert getattr(sp_, "sweep_runner", None) is None
            assert tel.metrics.counter("kernel.backend_rejected").value == 1
        finally:
            unregister_backend("broken-test")

    def test_broken_backend_positions_identical_to_reference(self):
        # End-to-end: a rejected backend must not perturb the flow at
        # all — the placement is bit-identical to an explicit reference
        # run, and the rejection is visible in the metrics.
        register_backend(_BrokenBackend())
        try:
            d_ref = generate_benchmark("fft_2", scale=0.03, seed=4)
            d_bad = generate_benchmark("fft_2", scale=0.03, seed=4)
            MMSIMLegalizer(
                LegalizerConfig(kernel_backend="reference")
            ).legalize(d_ref)
            with telemetry.session() as tel:
                MMSIMLegalizer(
                    LegalizerConfig(kernel_backend="broken-test")
                ).legalize(d_bad)
            np.testing.assert_array_equal(
                _positions(d_ref), _positions(d_bad)
            )
            assert tel.metrics.counter("kernel.backend_rejected").value >= 1
        finally:
            unregister_backend("broken-test")

    def test_raising_backend_degrades_not_raises(self):
        class Raising(KernelBackend):
            name = "raising-test"

            def build_runner(self, splitting):
                raise RuntimeError("boom")

        register_backend(Raising())
        try:
            with telemetry.session() as tel:
                sp_ = _splitting("raising-test")
            assert getattr(sp_, "sweep_runner", None) is None
            assert tel.metrics.counter("kernel.backend_rejected").value == 1
        finally:
            unregister_backend("raising-test")


class TestDegradation:
    def test_numba_absent_degrades_with_counter(self):
        backend = NumbaBackend()
        if backend.available():
            pytest.skip("numba importable here; absence path not testable")
        assert backend.unavailable_reason()
        with telemetry.session() as tel:
            sp_ = _splitting("numba")
        assert getattr(sp_, "sweep_runner", None) is None
        assert tel.metrics.counter("kernel.backend_unavailable").value == 1

    def test_numba_cli_config_never_raises(self):
        # Selecting numba must legalize fine whether or not numba is
        # installed (falling back to reference when absent).
        design = generate_benchmark("fft_2", scale=0.03, seed=4)
        result = MMSIMLegalizer(
            LegalizerConfig(kernel_backend="numba")
        ).legalize(design)
        assert result.audit_clean

    def test_arm_backend_unknown_name_is_a_caller_bug(self):
        sp_ = _splitting("reference")
        with pytest.raises(ValueError):
            arm_backend(sp_, "definitely-not-registered")


# ----------------------------------------------------------------------
# Config / protocol / cache plumbing
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            LegalizerConfig(kernel_backend="bogus")

    def test_config_accepts_all_registered_names(self):
        for name in known_backend_names():
            assert LegalizerConfig(kernel_backend=name).kernel_backend == name

    def test_protocol_rejects_unknown_backend(self):
        with pytest.raises(ProtocolError, match="kernel_backend"):
            LegalizeRequest.from_dict(
                {"design": {}, "config": {"kernel_backend": "bogus"}}
            )

    def test_setup_key_separates_backends(self):
        params = SplittingParameters()
        k_ref = scalar_setup_key(1000.0, params, "reference")
        k_fused = scalar_setup_key(1000.0, params, "fused")
        assert k_ref != k_fused
        assert k_ref == scalar_setup_key(1000.0, params, "reference")

    def test_setup_key_default_is_reference(self):
        params = SplittingParameters()
        assert scalar_setup_key(1000.0, params) == scalar_setup_key(
            1000.0, params, "reference"
        )


# ----------------------------------------------------------------------
# Probe-vector cache
# ----------------------------------------------------------------------
class TestProbeCache:
    def test_deterministic_and_salted(self):
        a = probe_vector(17)
        b = probe_vector(17)
        c = probe_vector(17, salt=1)
        np.testing.assert_array_equal(a, b)
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
        # "reordered" tolerance class: identical per-sweep arithmetic,
        # block-sampled stopping — after site snapping a borderline cell
        # may land one site over (docs/PERFORMANCE.md §5).
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
        assert abs(r_fused.iterations - r_ref.iterations) <= 2 * DEFAULT_BLOCK

    def test_backend_recorded_in_telemetry(self):
        design = generate_benchmark("fft_2", scale=0.03, seed=4)
        with telemetry.session() as tel:
            MMSIMLegalizer(
                LegalizerConfig(kernel_backend="fused")
            ).legalize(design)
        assert tel.metrics.gauge("kernel.backend.fused").value == 1.0
