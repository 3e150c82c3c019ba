"""Design-wide splitting blocks against the per-shard construction.

On the eager path ``build_shards`` builds one
:class:`~repro.core.splitting.LegalizationSplitting` and one KKT LCP per
design and gives every shard row-range blocks of them.  These tests hold
each shard to the per-shard construction that path replaced
(:func:`per_shard_setup`) bit for bit: H, B, E, H⁻¹, the top inverse,
Bᵀ, −B, D, D/θ*, the ``pttrf`` factors or scalar pivot, A and q, the
kernel labels and ``parameters_satisfy_theorem2()``.  They also count
constructions: one per default ``legalize()``, one per shard when a
``ReuseCache`` is given or the stacked kernels are declined.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.splitting as splitting_mod
import scipy.sparse as sp

from repro.core import (
    LegalizerConfig,
    MMSIMLegalizer,
    ReuseCache,
    build_shards,
    legalize,
)
from repro.core.splitting import LegalizationSplitting
from repro.lcp.problem import make_kkt_lcp
from repro.netlist import Design
from repro.rows import CoreArea
from test_split_parity import BENCHMARKS, _benchmark

MODES = {
    "default": {},
    "min_shard_variables=1": {"min_shard_variables": 1},
    "enforce_right_boundary": {"enforce_right_boundary": True},
    "balance_rows": {"balance_rows": True},
}

SPLITTING_MATRICES = (
    "H", "B", "E", "H_inv", "_H_inv_top", "BT", "_B_neg", "D", "_D_theta",
)


def per_shard_setup(source, shard):
    """The per-shard construction: slice the shard's own blocks and build
    its splitting and KKT LCP from them."""
    H, B, E = source.slice_blocks(shard.variables, shard.b_rows, shard.e_rows)
    splitting = LegalizationSplitting(H, B, E, source.lam, params=source.params)
    lcp = make_kkt_lcp(
        H, source.p[shard.variables], B, source.b[shard.b_rows]
    )
    return splitting, lcp


def _bits(value):
    """A matrix or array as comparable (dtype, shape, bytes) tuples."""
    if value is None:
        return None
    if hasattr(value, "indptr"):
        return (value.shape,) + tuple(
            (a.dtype.str, a.tobytes())
            for a in (value.data, value.indices, value.indptr)
        )
    value = np.asarray(value)
    return (value.dtype.str, value.shape, value.tobytes())


def _setup_bits(splitting, lcp, theorem2=True):
    out = {name: _bits(getattr(splitting, name)) for name in SPLITTING_MATRICES}
    # The per-shard build leaves both unset on a shard without B rows.
    factors = getattr(splitting, "_pttrf_factors", None)
    out["pttrf"] = None if factors is None else tuple(map(_bits, factors))
    out["pivot"] = getattr(splitting, "_bottom_pivot", None)
    out["A"] = _bits(lcp.A)
    out["q"] = _bits(lcp.q)
    out["kernels"] = (splitting.top_kernel, splitting.bottom_kernel)
    out["n, m"] = (splitting.n, splitting.m)
    if theorem2:
        out["theorem2"] = splitting.parameters_satisfy_theorem2()
    return out


def _built(design, **overrides):
    legalizer = MMSIMLegalizer(LegalizerConfig(**overrides))
    prepared = legalizer.prepare(design)
    legalizer.build_systems(prepared)
    return prepared.sharded


def _assert_shards_match_oracle(sharded, theorem2_shards=None):
    source = sharded.source
    for shard in sharded.shards:
        theorem2 = theorem2_shards is None or shard.index < theorem2_shards
        want = _setup_bits(*per_shard_setup(source, shard), theorem2=theorem2)
        got = _setup_bits(shard.splitting, shard.lcp, theorem2=theorem2)
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == want[name], (shard.index, name)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_shard_blocks_match_per_shard_build(name, mode):
    sharded = _built(_benchmark(name), **MODES[mode])
    # Theorem 2's power iteration on all ~1,000 micro-shards of the
    # blockage design would dominate the suite; its inputs (D, B, H⁻¹,
    # Bᵀ) are compared on every shard regardless.
    _assert_shards_match_oracle(
        sharded, theorem2_shards=64 if mode == "min_shard_variables=1" else None
    )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_empty_design_blocks_match_per_shard_build(mode):
    core = CoreArea(num_rows=4, row_height=9.0, num_sites=20)
    _assert_shards_match_oracle(
        _built(Design(name="empty", core=core), **MODES[mode])
    )


def test_micro_shards_cover_every_bottom_kernel():
    """The parity cases above include m = 0 (``none``), m = 1
    (``scalar``) and m ≥ 2 (``pttrs``) blocks, of chain as well as
    coupled shards."""
    sharded = _built(_benchmark("fences-macros"), min_shard_variables=1)
    kernels = {shard.splitting.bottom_kernel for shard in sharded.shards}
    assert kernels == {"none", "scalar", "pttrs"}
    assert {len(shard.e_rows) > 0 for shard in sharded.shards} == {True, False}


def test_single_shard_blocks_match_per_shard_build():
    sharded = _built(_benchmark("blockages"), shard=False)
    assert sharded.num_shards == 1
    _assert_shards_match_oracle(sharded)


# ----------------------------------------------------------------------
# Construction counts
# ----------------------------------------------------------------------
@pytest.fixture
def constructions(monkeypatch):
    """Count ``LegalizationSplitting`` constructions."""
    calls = []
    original = LegalizationSplitting.__init__

    def counting(self, *args, **kwargs):
        calls.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LegalizationSplitting, "__init__", counting)
    return calls


@pytest.mark.parametrize("overrides", [{}, {"shard": False}])
def test_one_construction_per_default_legalize(constructions, overrides):
    design = _benchmark("cold-tail-s1")
    result = legalize(design, LegalizerConfig(**overrides))
    assert result.audit_clean
    assert len(constructions) == 1


def test_reuse_cache_keeps_the_per_shard_build(constructions):
    design = _benchmark("eco-service-s1")
    reuse = ReuseCache()
    legalizer = MMSIMLegalizer(LegalizerConfig())
    prepared = legalizer.prepare(design)
    legalizer.build_systems(prepared, reuse=reuse)
    shards = prepared.sharded.num_shards
    assert shards > 1
    assert len(constructions) == shards
    assert reuse.stats == {"hit": 0, "miss": shards, "stale": 0}
    _assert_shards_match_oracle(prepared.sharded, theorem2_shards=0)

    del constructions[:]
    prepared = legalizer.prepare(design)
    legalizer.build_systems(prepared, reuse=reuse)
    for shard in prepared.sharded.shards:
        shard.splitting  # noqa: B018 - trusted shards come from the cache
    assert len(constructions) == 0
    assert reuse.stats == {"hit": shards, "miss": shards, "stale": 0}


@pytest.mark.parametrize("name", ["fences-macros", "single-height"])
def test_declined_stack_takes_the_per_shard_path(
    constructions, monkeypatch, name
):
    """With every probe failing, the design-wide kernels fall back to
    SuperLU, so each shard builds its own splitting, as the per-shard
    construction does under the same tolerance.  The single-height
    design's H = I skips the top probe, so there the bottom kernel alone
    is declined."""
    monkeypatch.setattr(splitting_mod, "_KERNEL_VERIFY_TOL", -1.0)
    design = _benchmark(name)
    sharded = _built(design)
    assert len(constructions) == 1 + sharded.num_shards
    kernels = {
        (sh.splitting.top_kernel, sh.splitting.bottom_kernel)
        for sh in sharded.shards
    }
    assert "superlu" in {label for pair in kernels for label in pair}
    _assert_shards_match_oracle(sharded)
    assert legalize(design).audit_clean


def test_declined_top_kernel_alone_takes_the_per_shard_path(constructions):
    """An H that is not I + λEᵀE fails the Woodbury probe while D keeps
    its ``pttrs`` kernel: the top gate alone sends every shard to its
    own build."""
    qp = MMSIMLegalizer().prepare(_benchmark("fences-macros")).legal_qp
    H = (qp.qp.H + sp.identity(qp.num_variables)).tocsr()
    sharded = build_shards(
        H, qp.qp.p, qp.qp.B, qp.qp.b, qp.E, qp.lam, var_groups=qp.var_groups
    )
    assert len(constructions) == 1 + sharded.num_shards
    assert {sh.splitting.top_kernel for sh in sharded.shards} == {"superlu"}
    assert "pttrs" in {sh.splitting.bottom_kernel for sh in sharded.shards}
    _assert_shards_match_oracle(sharded, theorem2_shards=0)
