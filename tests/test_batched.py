"""Tests for the batched micro-shard MMSIM engine (repro.core.batched).

The engine's load-bearing contract: stacking a group of shards into one
contiguous system and sweeping them through a single vectorized MMSIM is
*bit-identical* to solving each shard on its own — same iterates, same
iteration counts, same messages, same final placements.  Everything else
(grouping, repacking, warm starts, the resilience ladder peeling a shard
out of its batch) must preserve that.  The engine is reached through
``solve_sharded(..., batch=True)`` and, end to end, through
``legalize_many`` stacks of two or more designs, whose results must equal
each design's solo ``LegalizerConfig(min_shard_variables=1)`` run.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.core.batched import (
    SIGNATURE_BUCKETS,
    group_shards,
    shard_signature,
    solve_shards_batched,
)
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.multi import DesignJob, legalize_many
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


def _positions(design):
    return np.array([(c.x, c.y, c.flipped) for c in design.movable_cells])


def _stacked_vs_solo(**genkw):
    """``legalize_many`` over two fresh builds of the seed-1 design, and
    its solo ``min_shard_variables=1`` run; returns the stacked
    ``(positions, result)`` pairs and the solo pair.  (Stacks of
    distinct designs are checked in ``tests/test_multi.py``.)"""
    stacked = [
        generate_benchmark("fft_2", scale=0.05, seed=1, **genkw)
        for _ in range(2)
    ]
    results = legalize_many(stacked)
    design = generate_benchmark("fft_2", scale=0.05, seed=1, **genkw)
    solo = MMSIMLegalizer(LegalizerConfig(min_shard_variables=1)).legalize(
        design
    )
    return (
        [(_positions(d), r) for d, r in zip(stacked, results)],
        (_positions(design), solo),
    )


class TestSignatureGrouping:
    def test_chain_vs_coupled_kinds(self):
        sharded = _sharded(blockage_fraction=0.2, triple_fraction=0.5)
        kinds = {shard_signature(s)[0]: s for s in sharded.shards}
        assert set(kinds) == {"chain", "coupled"}
        assert len(kinds["chain"].e_rows) == 0
        assert len(kinds["coupled"].e_rows) > 0

    def test_size_bucket_is_capped(self):
        sharded = _sharded()
        sizes = [s.num_variables + s.num_constraints for s in sharded.shards]
        assert max(sizes).bit_length() > SIGNATURE_BUCKETS  # cap applies
        for shard, size in zip(sharded.shards, sizes):
            assert shard_signature(shard)[1] == min(
                int(size).bit_length(), SIGNATURE_BUCKETS
            )

    def test_groups_partition_the_shards(self):
        sharded = _sharded()
        groups = group_shards(sharded.shards)
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
        """Each design of a two-design stack lands exactly where its solo
        single-component run does: positions, KKT vector, displacement."""
        stacked, (want, want_result) = _stacked_vs_solo(**genkw)
        for got, got_result in stacked:
            assert np.array_equal(got, want)
            assert np.array_equal(
                got_result.kkt_solution, want_result.kkt_solution
            )
            assert got_result.audit_clean
            assert (
                got_result.displacement.total_manhattan_sites
                == want_result.displacement.total_manhattan_sites
            )

    def test_escalations_peel_shards_out_of_batches(self):
        # Every shard's primary MMSIM is injected to fail: the batched
        # engine's results are discarded per shard and each one walks
        # the ladder — identically to the unbatched run.
        # The legalizer's own (loose) tolerances, as in a legalize() run.
        opts = MMSIMLegalizer().solver_options()
        resilience = ResilienceConfig(inject={"*": ("mmsim",)})
        serial, serial_esc = solve_sharded(
            _sharded(blockage_fraction=0.2), opts, config=resilience
        )
        batched, batched_esc = solve_sharded(
            _sharded(blockage_fraction=0.2), opts, config=resilience,
            batch=True,
        )
        assert batched_esc
        assert [(e.shard_index, e.winner) for e in batched_esc] == [
            (e.shard_index, e.winner) for e in serial_esc
        ]
        assert np.array_equal(batched.z, serial.z)
        assert batched.converged == serial.converged


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
        def run(warm_states=(None, None)):
            return legalize_many(
                [
                    DesignJob(
                        design=generate_benchmark("fft_2", scale=0.05, seed=s),
                        warm_state=state,
                    )
                    for s, state in zip((1, 2), warm_states)
                ]
            )

        cold = run()
        assert all(r.kkt_solution is not None for r in cold)
        warm = run(tuple(r.kkt_solution for r in cold))
        for w, c in zip(warm, cold):
            assert w.warm_start == "state"
            assert w.converged
            assert w.iterations < c.iterations

    def test_wrong_shape_warm_start_is_ignored(self):
        # The rejected job falls back to the GP seed and stacks with the
        # cold job next to it.
        with pytest.warns(UserWarning):
            results = legalize_many(
                [
                    DesignJob(
                        design=generate_benchmark("fft_2", scale=0.05, seed=1),
                        warm_state=np.zeros(3),
                    ),
                    generate_benchmark("fft_2", scale=0.05, seed=2),
                ]
            )
        assert results[0].warm_start_rejected is not None
        assert all(r.converged for r in results)


class TestTelemetry:
    def test_batch_metrics_and_events(self):
        designs = [
            generate_benchmark(
                "fft_2", scale=0.05, seed=s, blockage_fraction=0.2
            )
            for s in (1, 2)
        ]
        with telemetry.session() as tel:
            legalize_many(designs)
        snap = tel.metrics.snapshot()
        assert snap["batch.groups"]["value"] >= 1
        assert snap["batch.shards"]["value"] >= 2
        assert 0.0 <= snap["batch.padding_waste"]["value"] < 1.0
        iterations = tel.events.events(solver="mmsim_batch", kind="iteration")
        assert iterations
        assert all(e["group"] for e in iterations)
        done = tel.events.events(solver="mmsim_batch", kind="done")
        assert done
