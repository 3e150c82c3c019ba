"""Cross-design stacked solves (legalize_many) vs solo runs.

The load-bearing invariants: merging designs into one block-diagonal
batched solve is *exact* — positions are bit-identical to legalizing
each design alone, warm or cold — and a job with nothing to merge with
gets ``legalize()``'s answer bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen.generator import generate_benchmark
from repro.core import (
    DesignJob,
    LegalizerConfig,
    ReuseCache,
    SolverState,
    legalize,
    legalize_many,
)
from repro import telemetry


def positions(design):
    return [(c.name, c.x, c.y, c.flipped) for c in design.cells]


def make_designs():
    return [
        generate_benchmark("fft_2", scale=0.008, seed=s) for s in (1, 2, 3)
    ]


def test_merged_positions_bit_identical_to_solo():
    """Default configs: solo runs shard at min_shard_variables=256 while
    the merged path micro-shards, so per-component early stopping makes
    the raw z differ below tol — but *positions* must be bit-identical
    (Tetris site-snapping is exactly why the default tol is loose)."""
    solo_designs = make_designs()
    for d in solo_designs:
        legalize(d)
    merged_designs = make_designs()
    merged_results = legalize_many(merged_designs)
    for sd, md, mr in zip(solo_designs, merged_designs, merged_results):
        assert positions(sd) == positions(md)
        assert mr.audit_clean
        assert mr.stage_seconds  # prepare + mmsim + finish all timed


def test_merged_kkt_solution_bit_identical_with_matching_sharding():
    """With the solo reference at the same single-component granularity
    the merged solve is bitwise exact, z included: stacking across
    designs only changes which group a shard sweeps in, and the batched
    engine is bit-identical to the per-shard path."""
    cfg = LegalizerConfig(min_shard_variables=1)
    solo_designs = make_designs()
    solo_results = [legalize(d, config=cfg) for d in solo_designs]
    merged_designs = make_designs()
    merged_results = legalize_many(
        [DesignJob(design=d, config=cfg) for d in merged_designs]
    )
    for sd, md, sr, mr in zip(
        solo_designs, merged_designs, solo_results, merged_results
    ):
        assert positions(sd) == positions(md)
        np.testing.assert_array_equal(sr.kkt_solution, mr.kkt_solution)


def test_merged_warm_start_bit_identical_to_solo():
    base = generate_benchmark("fft_2", scale=0.008, seed=5)
    cold = legalize(base)
    state = SolverState.from_result(base, cold)

    solo_design = generate_benchmark("fft_2", scale=0.008, seed=5)
    solo_result = legalize(solo_design, warm_start_z=state)
    merged_design = generate_benchmark("fft_2", scale=0.008, seed=5)
    (merged_result,) = legalize_many(
        [DesignJob(design=merged_design, warm_state=state)]
    )
    assert merged_result.warm_start == "state"
    assert positions(solo_design) == positions(merged_design)
    assert merged_result.iterations == solo_result.iterations


def test_warm_and_cold_jobs_solve_in_separate_groups():
    base = generate_benchmark("fft_2", scale=0.008, seed=5)
    state = SolverState.from_result(base, legalize(base))

    warm_design = generate_benchmark("fft_2", scale=0.008, seed=5)
    cold_design = generate_benchmark("fft_2", scale=0.008, seed=6)
    warm_res, cold_res = legalize_many(
        [
            DesignJob(design=warm_design, warm_state=state),
            DesignJob(design=cold_design),
        ]
    )
    assert warm_res.warm_start == "state"
    assert cold_res.warm_start == "gp"
    # The warm job re-solves an already-solved design: a handful of
    # sweeps.  Sharing a seed vector (and a group iteration count) with
    # the cold job would destroy this, which is why the groups split.
    assert warm_res.iterations <= 5
    assert warm_res.audit_clean and cold_res.audit_clean


def test_stale_state_rejected_in_merged_path():
    other = generate_benchmark("fft_2", scale=0.01, seed=9)
    state = SolverState.from_result(other, legalize(other))
    design = generate_benchmark("fft_2", scale=0.008, seed=5)
    with pytest.warns(Warning, match="stale"):
        (result,) = legalize_many([DesignJob(design=design, warm_state=state)])
    assert result.warm_start == "gp"
    assert result.warm_start_rejected is not None
    assert result.audit_clean


def test_non_mergeable_config_falls_back_to_solo():
    designs = make_designs()[:2]
    cfg = LegalizerConfig(shard=False)  # monolithic: excluded from merging
    results = legalize_many([DesignJob(design=d, config=cfg) for d in designs])
    assert all(r.audit_clean for r in results)
    solo_designs = make_designs()[:2]
    for d in solo_designs:
        legalize(d, config=cfg)
    assert [positions(d) for d in designs] == [
        positions(d) for d in solo_designs
    ]


def test_plain_designs_and_empty_input():
    assert legalize_many([]) == []
    design = generate_benchmark("fft_2", scale=0.005, seed=2)
    (result,) = legalize_many([design])  # bare Design is wrapped
    assert result.audit_clean


def test_merge_false_matches_merge_true():
    """Unmerged (one job per call) and merged (one call for all jobs)
    runs place every design alike."""
    a = make_designs()
    ra = legalize_many(a)
    b = make_designs()
    rb = [legalize_many([d])[0] for d in b]
    for da, db in zip(a, b):
        assert positions(da) == positions(db)
    assert [r.audit_clean for r in ra] == [r.audit_clean for r in rb]


@pytest.mark.parametrize("scale", [0.02, 0.05])
def test_lone_job_equals_legalize(scale):
    """A job alone in its batch runs ``legalize()``'s own phases: equal
    KKT vector, positions and sweep count on blockage designs, where a
    single-component stacked solve would stop its shards elsewhere."""
    alone = generate_benchmark(
        "fft_2", scale=scale, seed=3, blockage_fraction=0.15
    )
    (got,) = legalize_many([DesignJob(design=alone)])
    solo = generate_benchmark(
        "fft_2", scale=scale, seed=3, blockage_fraction=0.15
    )
    want = legalize(solo)
    assert got.kkt_solution.tobytes() == want.kkt_solution.tobytes()
    assert positions(alone) == positions(solo)
    assert got.iterations == want.iterations
    assert got.solver_escalations == want.solver_escalations
    assert set(got.stage_seconds) == set(want.stage_seconds)


def test_merged_run_emits_batch_metrics():
    with telemetry.session() as tel:
        legalize_many(make_designs())
    snap = tel.metrics.snapshot()
    assert snap["mmsim.solves"]["value"] >= 1
    assert any(name.startswith("batch.") for name in snap)
    assert snap["legalizer.cells_moved"]["value"] > 0


def _blocked(seed):
    return generate_benchmark(
        "fft_2", scale=0.05, seed=seed, blockage_fraction=0.15
    )


@pytest.mark.parametrize("first", ["fused", "reference"])
def test_jobs_on_different_backends_never_share_a_solve(first):
    """The kernel backend is part of the solver key: a job queued behind
    a job on another backend gets bitwise the ``kkt_solution`` it gets in
    a group on its own backend (a shared stacked solve would run both on
    the first job's backend)."""
    second = "reference" if first == "fused" else "fused"
    plan = ((1, first), (2, second))
    mixed = legalize_many(
        [
            DesignJob(
                design=_blocked(seed),
                config=LegalizerConfig(kernel_backend=backend),
            )
            for seed, backend in plan
        ]
    )
    for (seed, backend), got in zip(plan, mixed):
        (alone,) = legalize_many(
            [
                DesignJob(
                    design=_blocked(seed),
                    config=LegalizerConfig(kernel_backend=backend),
                )
            ]
        )
        assert got.kkt_solution.tobytes() == alone.kkt_solution.tobytes()


def test_lone_job_rides_its_reuse_cache_and_stacks_skip_it():
    """A lone job builds through ``DesignJob.reuse`` exactly as
    ``legalize(..., reuse=)`` does (the unchanged re-run hits every
    shard and lands on the same bits); a stack of two jobs leaves the
    cache untouched, since it cannot describe a stacked system."""
    reuse = ReuseCache()
    first = _blocked(3)
    (cold,) = legalize_many([DesignJob(design=first, reuse=reuse)])
    misses = reuse.stats["miss"]
    assert misses > 0 and reuse.stats["hit"] == 0
    again = _blocked(3)
    (rerun,) = legalize_many([DesignJob(design=again, reuse=reuse)])
    assert reuse.stats == {"hit": misses, "miss": misses, "stale": 0}
    assert rerun.kkt_solution.tobytes() == cold.kkt_solution.tobytes()
    assert positions(again) == positions(first)

    legalize_many(
        [DesignJob(design=_blocked(seed), reuse=reuse) for seed in (3, 4)]
    )
    assert reuse.stats == {"hit": misses, "miss": misses, "stale": 0}
