"""``shard=False`` against the removed monolithic solve path.

``LegalizerConfig(shard=False)`` is the one-shard partition of the
sharded path: every variable in one shard, in global order, with no
coupling-component pass and no split at fence groups.  These tests hold
it bit for bit to the path it replaced (``monolithic_oracle``) on
blocked, fenced and triple-height designs, healthy and with the primary
MMSIM injected to fail so rung 2 wins.
"""

from __future__ import annotations

import numpy as np
import pytest

from monolithic_oracle import legalize_monolithic_oracle
from repro.benchgen import generate_benchmark
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.resilience import ResilienceConfig

DESIGNS = {
    "blockages": dict(blockage_fraction=0.15, seed=3),
    "fences": dict(fences=2, macro_fraction=0.1, seed=1),
    "triple": dict(triple_fraction=0.1, seed=5),
}

MODES = {
    "healthy": dict(),
    "inject_mmsim": dict(resilience=ResilienceConfig(inject={"*": ("mmsim",)})),
}


def _design(name):
    return generate_benchmark("fft_2", scale=0.02, **DESIGNS[name])


def _positions(design):
    return np.array([(c.x, c.y, float(c.flipped)) for c in design.cells])


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_one_shard_matches_monolithic_oracle(design_name, mode):
    cfg = LegalizerConfig(shard=False, **MODES[mode])
    d_path = _design(design_name)
    d_oracle = _design(design_name)
    got = MMSIMLegalizer(cfg).legalize(d_path)
    want = legalize_monolithic_oracle(d_oracle, cfg)

    assert got.kkt_solution.tobytes() == want.kkt_solution.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert _positions(d_path).tobytes() == _positions(d_oracle).tobytes()
    assert [(e.shard_index, e.winner) for e in got.solver_escalations] == [
        (e.shard_index, e.winner) for e in want.solver_escalations
    ]
    if mode == "inject_mmsim":
        assert [e.winner for e in got.solver_escalations] == ["mmsim_safe"]
    assert got.audit_clean


def test_one_shard_partition_has_no_component_pass():
    """One shard in global order, with no coupling-component pass."""
    design = _design("fences")
    legalizer = MMSIMLegalizer(LegalizerConfig(shard=False))
    prepared = legalizer.prepare(design)
    legalizer.build_systems(prepared)
    sharded = prepared.sharded
    (shard,) = sharded.shards
    assert sharded.labels is None
    assert sharded.num_components == 1
    np.testing.assert_array_equal(shard.variables, np.arange(sharded.n))
    np.testing.assert_array_equal(shard.b_rows, np.arange(sharded.m))
    assert len(shard.e_rows) == prepared.legal_qp.E.shape[0]
    legalizer.finish(prepared, *legalizer.solve_prepared(prepared))
