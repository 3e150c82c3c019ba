"""Tests for the batched micro-shard MMSIM engine (repro.core.batched).

The engine's load-bearing contract: stacking a group of shards into one
contiguous system and sweeping them through a single vectorized MMSIM is
*bit-identical* to solving each shard on its own — same iterates, same
iteration counts, same messages, same final placements.  Everything else
(grouping, repacking, warm starts, the resilience ladder peeling a shard
out of its batch) must preserve that.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.core.batched import (
    BatchOptions,
    group_shards,
    shard_signature,
    solve_shards_batched,
)
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.qp_builder import build_legalization_qp
from repro.core.resilience import ResilienceConfig
from repro.core.row_assign import assign_rows
from repro.core.sharding import shard_legalization_qp, solve_sharded
from repro.core.subcells import split_cells
from repro.lcp import MMSIMOptions, mmsim_solve

# Generator profiles the bit-identity sweep runs over: plain, blockage-
# fragmented (the micro-shard-heavy regime the engine targets), and
# triple-height-rich (more multi-row consistency coupling).
PROFILES = [
    {},
    {"blockage_fraction": 0.2},
    {"blockage_fraction": 0.2, "triple_fraction": 0.5},
]


def _legal_qp(scale=0.05, seed=1, **genkw):
    design = generate_benchmark("fft_2", scale=scale, seed=seed, **genkw)
    model = split_cells(design, assign_rows(design))
    return build_legalization_qp(design, model)


def _sharded(scale=0.05, seed=1, **genkw):
    return shard_legalization_qp(
        _legal_qp(scale=scale, seed=seed, **genkw),
        min_shard_variables=1,
        lazy=True,
    )


class TestBatchOptions:
    def test_defaults_valid(self):
        opts = BatchOptions()
        assert opts.signature_buckets >= 1
        assert opts.min_group_shards >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"signature_buckets": 0},
            {"min_group_shards": 0},
            {"repack_fraction": -0.1},
            {"repack_fraction": 1.0},
            {"repack_interval": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BatchOptions(**kwargs)


class TestSignatureGrouping:
    def test_chain_vs_coupled_kinds(self):
        sharded = _sharded(blockage_fraction=0.2, triple_fraction=0.5)
        kinds = {
            shard_signature(s, 8)[0]: s for s in sharded.shards
        }
        assert set(kinds) == {"chain", "coupled"}
        assert len(kinds["chain"].e_rows) == 0
        assert len(kinds["coupled"].e_rows) > 0

    def test_size_bucket_is_capped(self):
        sharded = _sharded()
        for shard in sharded.shards:
            size = shard.num_variables + shard.num_constraints
            assert shard_signature(shard, 8)[1] == min(
                int(size).bit_length(), 8
            )
            assert shard_signature(shard, 1)[1] == 1

    def test_groups_partition_the_shards(self):
        sharded = _sharded()
        groups = group_shards(sharded.shards, BatchOptions())
        grouped = [s.index for shards in groups.values() for s in shards]
        assert sorted(grouped) == [s.index for s in sharded.shards]
        for shards in groups.values():
            indices = [s.index for s in shards]
            assert indices == sorted(indices)  # shard order preserved


class TestBitIdentity:
    @pytest.mark.parametrize("genkw", PROFILES)
    def test_engine_matches_per_shard_solve(self, genkw):
        sharded = _sharded(**genkw)
        opts = MMSIMOptions()
        results = solve_shards_batched(sharded, opts)
        assert results, "engine should batch at least one group"
        by_index = {s.index: s for s in sharded.shards}
        for index, result in results.items():
            shard = by_index[index]
            reference = mmsim_solve(shard.lcp, shard.splitting, opts)
            assert np.array_equal(result.z, reference.z)
            assert result.iterations == reference.iterations
            assert result.converged == reference.converged
            assert result.message == reference.message

    @pytest.mark.parametrize("genkw", PROFILES)
    def test_solve_sharded_batch_flag(self, genkw):
        # At these tolerances some triple-height shards stall; rungs 2-4
        # are injected to fail so a stalled shard clamps at once instead
        # of spending a minute on the ladder, identically on both sides.
        opts = MMSIMOptions()
        ladder = ResilienceConfig(
            inject={"*": ("mmsim_safe", "psor", "lemke")}
        )
        serial, serial_esc = solve_sharded(
            _sharded(**genkw), opts, config=ladder
        )
        batched, batched_esc = solve_sharded(
            _sharded(**genkw), opts, config=ladder, batch=True
        )
        assert np.array_equal(batched.z, serial.z)
        assert batched.iterations == serial.iterations
        assert batched.converged == serial.converged
        assert [(e.shard_index, e.winner) for e in batched_esc] == [
            (e.shard_index, e.winner) for e in serial_esc
        ]

    @pytest.mark.parametrize("genkw", PROFILES)
    def test_end_to_end_positions_identical(self, genkw):
        def placements(cfg):
            design = generate_benchmark("fft_2", scale=0.05, seed=1, **genkw)
            result = MMSIMLegalizer(cfg).legalize(design)
            return (
                np.array([(c.x, c.y) for c in design.movable_cells]),
                result,
            )

        micro, micro_result = placements(
            LegalizerConfig(min_shard_variables=1)
        )
        batched, batched_result = placements(
            LegalizerConfig(batch_micro_shards=True)
        )
        assert np.array_equal(batched, micro)
        assert batched_result.audit_clean
        assert (
            batched_result.displacement.total_manhattan_sites
            == micro_result.displacement.total_manhattan_sites
        )

    def test_escalations_peel_shards_out_of_batches(self):
        # Every shard's primary MMSIM is injected to fail: the batched
        # engine's results are discarded per shard and each one walks
        # the ladder — identically to the unbatched run.
        def placements(cfg):
            design = generate_benchmark(
                "fft_2", scale=0.05, seed=1, blockage_fraction=0.2
            )
            result = MMSIMLegalizer(cfg).legalize(design)
            return (
                np.array([(c.x, c.y) for c in design.movable_cells]),
                result,
            )

        resilience = ResilienceConfig(inject={"*": ("mmsim",)})
        micro, micro_result = placements(
            LegalizerConfig(min_shard_variables=1, resilience=resilience)
        )
        batched, batched_result = placements(
            LegalizerConfig(batch_micro_shards=True, resilience=resilience)
        )
        assert batched_result.solver_escalations
        assert len(batched_result.solver_escalations) == len(
            micro_result.solver_escalations
        )
        assert batched_result.audit_clean
        assert np.array_equal(batched, micro)


class TestWarmStart:
    def test_z0_accelerates_and_stays_bit_identical(self):
        opts = MMSIMOptions()
        cold, _ = solve_sharded(
            _sharded(blockage_fraction=0.2), opts, batch=True
        )
        assert cold.converged
        warm_ref, _ = solve_sharded(
            _sharded(blockage_fraction=0.2), opts, z0=cold.z
        )
        warm_batched, _ = solve_sharded(
            _sharded(blockage_fraction=0.2), opts, z0=cold.z, batch=True
        )
        assert warm_batched.converged
        assert warm_batched.iterations < cold.iterations
        assert np.array_equal(warm_batched.z, warm_ref.z)

    def test_legalizer_warm_start_round_trip(self):
        def run(warm_start_z=None):
            design = generate_benchmark("fft_2", scale=0.05, seed=1)
            cfg = LegalizerConfig(batch_micro_shards=True)
            return MMSIMLegalizer(cfg).legalize(
                design, warm_start_z=warm_start_z
            )

        cold = run()
        assert cold.kkt_solution is not None
        warm = run(warm_start_z=cold.kkt_solution)
        assert warm.converged
        assert warm.iterations < cold.iterations

    def test_wrong_shape_warm_start_is_ignored(self):
        design = generate_benchmark("fft_2", scale=0.05, seed=1)
        cfg = LegalizerConfig(batch_micro_shards=True)
        with pytest.warns(UserWarning):
            result = MMSIMLegalizer(cfg).legalize(
                design, warm_start_z=np.zeros(3)
            )
        assert result.converged


class TestTelemetry:
    def test_batch_metrics_and_events(self):
        design = generate_benchmark(
            "fft_2", scale=0.05, seed=1, blockage_fraction=0.2
        )
        with telemetry.session() as tel:
            MMSIMLegalizer(
                LegalizerConfig(batch_micro_shards=True)
            ).legalize(design)
        snap = tel.metrics.snapshot()
        assert snap["batch.groups"]["value"] >= 1
        assert snap["batch.shards"]["value"] >= 2
        assert 0.0 <= snap["batch.padding_waste"]["value"] < 1.0
        iterations = tel.events.events(solver="mmsim_batch", kind="iteration")
        assert iterations
        assert all(e["group"] for e in iterations)
        done = tel.events.events(solver="mmsim_batch", kind="done")
        assert done
