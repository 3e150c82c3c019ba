"""Setup reuse (repro.core.setup_cache).

The cache's contract is *bit-identity or rebuild*: a reused splitting
must be provably identical to what a cold build would produce (bitwise
identical global blocks and scalars + matching index key from the one
kept generation), and anything else is rebuilt — a structural edit
misses, a numeric edit under the same sharding goes stale, and a
right-hand-side-only edit (GP targets, bounds) rides free because ``q``
is never cached.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.setup_cache import ReuseCache, index_key, scalar_setup_key
from repro.core.sharding import ShardSource
from repro.core.splitting import SplittingParameters
from repro.service.store import WarmStateStore
from repro.telemetry import prometheus_text


def _design(scale=0.05, seed=3, blockage=0.15):
    return generate_benchmark(
        "fft_2", scale=scale, seed=seed, blockage_fraction=blockage
    )


def _positions(design):
    return np.array([(c.x, c.y) for c in design.movable_cells])


def _run(cfg, design, reuse=None, warm=None):
    return MMSIMLegalizer(cfg).legalize(
        design, warm_start_z=warm, reuse=reuse
    )


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
class TestKeys:
    def test_index_key_deterministic_and_sensitive(self):
        v = np.array([0, 1, 2])
        b = np.array([0, 1])
        e = np.array([], dtype=np.int64)
        assert index_key(v, b, e) == index_key(v.copy(), b.copy(), e.copy())
        assert index_key(v, b, e) != index_key(v + 1, b, e)
        assert index_key(v, b, e) != index_key(v, b[:1], e)

    def test_index_key_separates_field_boundaries(self):
        # [0,1]|[2] must not collide with [0]|[1,2].
        a = index_key(np.array([0, 1]), np.array([2]), np.array([]))
        b = index_key(np.array([0]), np.array([1, 2]), np.array([]))
        assert a != b

    def test_scalar_key_covers_all_knobs(self):
        p = SplittingParameters(beta=0.5, theta=0.5)
        base = scalar_setup_key(1000.0, p)
        assert scalar_setup_key(999.0, p) != base
        q = SplittingParameters(beta=0.4, theta=0.5)
        assert scalar_setup_key(1000.0, q) != base


# ----------------------------------------------------------------------
# ReuseCache trust decisions on synthetic systems
# ----------------------------------------------------------------------
def _system(n=6):
    H = sp.csr_matrix(sp.eye(n, format="csr"))
    B = sp.csr_matrix(
        ([1.0, -1.0, 1.0, -1.0], ([0, 0, 1, 1], [0, 1, 3, 4])), shape=(2, n)
    )
    E = sp.csr_matrix((0, n))
    return H, B, E


class TestReuseCacheTrust:
    KEY = (1000.0, 0.5, 0.5, "reference")

    def _primed(self, H, B, E):
        reuse = ReuseCache()
        reuse.end_run(H, B, E, self.KEY, {})
        return reuse

    def test_first_run_nothing_trusted(self):
        H, B, E = _system()
        assert not ReuseCache().begin_run(H, B, E, self.KEY)

    def test_identical_rerun_all_trusted(self):
        H, B, E = _system()
        reuse = self._primed(H, B, E)
        assert reuse.begin_run(H.copy(), B.copy(), E.copy(), self.KEY)

    def test_scalar_change_untrusts_everything(self):
        H, B, E = _system()
        reuse = self._primed(H, B, E)
        assert not reuse.begin_run(H, B, E, (999.0, 0.5, 0.5, "reference"))

    def test_monolithic_labels_none_is_all_or_nothing(self):
        """Any one changed entry, in any matrix, untrusts the whole run."""
        H, B, E = _system()
        reuse = self._primed(H, B, E)
        H2 = H.copy()
        H2[5, 5] = 3.0
        B2 = B.copy()
        B2[1, 3] = 2.0
        assert not reuse.begin_run(H2, B, E, self.KEY)
        assert not reuse.begin_run(H, B2, E, self.KEY)
        assert not reuse.begin_run(H, B, sp.csr_matrix((1, 6)), self.KEY)

    def test_begin_run_keeps_the_previous_generation(self):
        """Only end_run replaces the generation, so a run that fails
        before its setups are built leaves the cache as it was."""
        H, B, E = _system()
        reuse = self._primed(H, B, E)
        H2 = H.copy()
        H2[0, 0] = 7.0
        assert not reuse.begin_run(H2, B, E, self.KEY)
        assert reuse.begin_run(H, B, E, self.KEY)


# ----------------------------------------------------------------------
# End-to-end: legalize with reuse
# ----------------------------------------------------------------------
class TestLegalizeWithReuse:
    def test_sharded_unchanged_rerun_is_bit_identical_hit(self):
        reuse = ReuseCache()
        d1 = _design()
        r1 = _run(LegalizerConfig(), d1, reuse=reuse)
        first = dict(reuse.stats)
        assert first["miss"] > 0 and first["hit"] == 0

        d2 = _design()
        r2 = _run(LegalizerConfig(), d2, reuse=reuse)
        delta_hit = reuse.stats["hit"] - first["hit"]
        assert delta_hit > 0
        assert reuse.stats["miss"] == first["miss"]  # no new builds
        assert reuse.stats["stale"] == 0
        assert np.array_equal(_positions(d1), _positions(d2))
        assert r1.iterations == r2.iterations

    @pytest.mark.parametrize("shard", [True, False])
    def test_fresh_cache_slices_each_shard_once(self, shard, monkeypatch):
        """A miss builds a shard's splitting and KKT LCP from one
        ``slice_blocks`` call, the only indexing of the design's H, and
        lands on the cache-free run's bits."""
        cfg = LegalizerConfig(shard=shard)
        d_plain = _design()
        r_plain = _run(cfg, d_plain)
        sources = []
        indexed = []  # every indexed matrix, kept alive so ids stay unique
        real_slice = ShardSource.slice_blocks
        real_getitem = sp.csr_matrix.__getitem__

        def slice_blocks(self, vi, bi, ei):
            sources.append(self)
            return real_slice(self, vi, bi, ei)

        def getitem(self, key):
            indexed.append(self)
            return real_getitem(self, key)

        monkeypatch.setattr(ShardSource, "slice_blocks", slice_blocks)
        monkeypatch.setattr(sp.csr_matrix, "__getitem__", getitem)
        reuse = ReuseCache()
        d = _design()
        r = _run(cfg, d, reuse=reuse)
        monkeypatch.undo()
        shards = len(reuse.setups)
        assert len(sources) == shards == reuse.stats["miss"]
        assert sum(m is sources[0].H for m in indexed) == shards
        assert r.kkt_solution.tobytes() == r_plain.kkt_solution.tobytes()
        assert r.iterations == r_plain.iterations
        assert _positions(d).tobytes() == _positions(d_plain).tobytes()

    def test_monolithic_rerun_hits(self):
        cfg = LegalizerConfig(shard=False)
        reuse = ReuseCache()
        d1 = _design(scale=0.02)
        _run(cfg, d1, reuse=reuse)
        assert reuse.stats == {"hit": 0, "miss": 1, "stale": 0}
        assert len(reuse.setups) == 1  # the one shard's entry
        d2 = _design(scale=0.02)
        _run(cfg, d2, reuse=reuse)
        assert reuse.stats == {"hit": 1, "miss": 1, "stale": 0}
        assert np.array_equal(_positions(d1), _positions(d2))

    def test_numeric_only_change_goes_stale_not_hit(self):
        """Same design, different λ: every index key matches but the
        scalar key differs — entries must be rebuilt as stale, and the
        result must equal a cold run at the new λ bit-for-bit."""
        reuse = ReuseCache()
        _run(LegalizerConfig(), _design(), reuse=reuse)
        misses = reuse.stats["miss"]

        d2 = _design()
        _run(LegalizerConfig(lam=500.0), d2, reuse=reuse)
        assert reuse.stats["hit"] == 0
        assert reuse.stats["stale"] > 0
        assert reuse.stats["miss"] == misses  # keys all matched

        d_cold = _design()
        _run(LegalizerConfig(lam=500.0), d_cold)
        assert np.array_equal(_positions(d2), _positions(d_cold))

    def test_structural_change_misses_and_matches_cold(self):
        """A different design (other scale): index keys cannot match, so
        everything is a miss — never a silent wrong-matrix hit."""
        reuse = ReuseCache()
        _run(LegalizerConfig(), _design(scale=0.05), reuse=reuse)
        stats = dict(reuse.stats)

        d2 = _design(scale=0.03)
        _run(LegalizerConfig(), d2, reuse=reuse)
        assert reuse.stats["hit"] == stats["hit"] == 0
        assert reuse.stats["miss"] > stats["miss"]

        d_cold = _design(scale=0.03)
        _run(LegalizerConfig(), d_cold)
        assert np.array_equal(_positions(d2), _positions(d_cold))

    def test_rhs_only_change_rides_the_cache(self):
        """Nudging one cell's GP target within its segment changes only
        ``p`` — q is rebuilt fresh, so the cached setups still hit and
        the result is bit-identical to a cold run of the nudged design."""
        reuse = ReuseCache()
        _run(LegalizerConfig(), _design(), reuse=reuse)
        first = dict(reuse.stats)

        def nudged():
            d = _design()
            d.movable_cells[0].gp_x += 1e-6
            return d

        d2 = nudged()
        _run(LegalizerConfig(), d2, reuse=reuse)
        assert reuse.stats["hit"] > first["hit"]
        assert reuse.stats["miss"] == first["miss"]
        assert reuse.stats["stale"] == 0

        d_cold = nudged()
        _run(LegalizerConfig(), d_cold)
        assert np.array_equal(_positions(d2), _positions(d_cold))

    def test_counters_export_via_prometheus(self):
        with telemetry.session() as tel:
            reuse = ReuseCache()
            _run(LegalizerConfig(), _design(scale=0.02), reuse=reuse)
            _run(LegalizerConfig(), _design(scale=0.02), reuse=reuse)
        text = prometheus_text(tel)
        assert "# TYPE repro_setup_cache_hit counter" in text
        assert "# TYPE repro_setup_cache_miss counter" in text
        hits = reuse.stats["hit"]
        assert f"repro_setup_cache_hit {hits}" in text


@pytest.mark.parametrize("seed", [5, 6])
def test_partition_change_never_serves_an_older_generation(seed):
    """Runs at min_shard_variables 256 → 1 → 1 (3 cells moved) → 256
    under one cache.  The last run's matrices equal the third's, so it
    is trusted, and its shard keys are the first run's — whose setups
    were built from the unmoved design.  It must take none of them and
    answer exactly as a cold run does."""

    def moved():
        design = generate_benchmark("fft_2", scale=0.05, seed=1)
        rng = np.random.default_rng(seed)
        cells = design.movable_cells
        for i in rng.choice(len(cells), size=3, replace=False):
            cells[int(i)].gp_x += (
                float(rng.uniform(-40.0, 40.0)) * design.core.site_width
            )
        return design

    reuse = ReuseCache()
    for msv, design in (
        (256, generate_benchmark("fft_2", scale=0.05, seed=1)),
        (1, generate_benchmark("fft_2", scale=0.05, seed=1)),
        (1, moved()),
    ):
        _run(LegalizerConfig(min_shard_variables=msv), design, reuse=reuse)

    warm, cold = moved(), moved()
    r_warm = _run(LegalizerConfig(), warm, reuse=reuse)
    r_cold = _run(LegalizerConfig(), cold)
    assert r_warm.kkt_solution.tobytes() == r_cold.kkt_solution.tobytes()
    assert np.array_equal(_positions(warm), _positions(cold))


# ----------------------------------------------------------------------
# Service store checkout semantics
# ----------------------------------------------------------------------
class TestStoreReuse:
    def test_take_is_exclusive_until_given_back(self):
        store = WarmStateStore()
        cache = ReuseCache()
        store.give_reuse("k", cache)
        assert store.stats()["reuse_entries"] == 1
        assert store.take_reuse("k") is cache
        # Checked out: a concurrent request under the same key misses.
        assert store.take_reuse("k") is None
        store.give_reuse("k", cache)
        assert store.take_reuse("k") is cache

    def test_invalidate_and_clear_drop_reuse(self):
        store = WarmStateStore()
        store.give_reuse("k", ReuseCache())
        assert store.invalidate("k")
        assert store.take_reuse("k") is None
        store.give_reuse("k2", ReuseCache())
        store.clear()
        assert store.stats()["reuse_entries"] == 0

    def test_nbytes_counts_each_buffer_once(self):
        base = np.zeros(100)
        cache = ReuseCache(setups={
            b"a": (base[:10], base),
            b"b": (lambda r, _m=base[5:]: _m @ r, None),
        })
        assert cache.nbytes() == base.nbytes

    def test_store_charges_a_real_cache(self):
        design = generate_benchmark("fft_2", scale=0.02, seed=1)
        cache = ReuseCache()
        _run(LegalizerConfig(), design, reuse=cache)
        kkt_bytes = sum(A.data.nbytes for _, A in cache.setups.values())
        assert cache.nbytes() > kkt_bytes > 0
        store = WarmStateStore()
        store.give_reuse("k", cache)
        assert store.stats()["bytes"] == cache.nbytes()
        store.take_reuse("k")
        assert store.stats()["bytes"] == 0

    def test_reuse_entries_are_lru_bounded(self):
        store = WarmStateStore(max_entries=2)
        for i in range(3):
            store.give_reuse(f"k{i}", ReuseCache())
        assert store.stats()["reuse_entries"] == 2
        assert store.take_reuse("k0") is None
        assert store.take_reuse("k2") is not None
