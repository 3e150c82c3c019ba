"""Incremental setup reuse (repro.core.setup_cache).

The cache's contract is *bit-identity or rebuild*: a reused splitting
must be provably identical to what a cold build would produce (trusted
global blocks + matching index key), and anything the trust diff cannot
prove identical is rebuilt — a structural edit misses, a numeric edit
under the same sharding goes stale, and a right-hand-side-only edit
(GP targets, bounds) rides free because ``q`` is never cached.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.setup_cache import (
    ReuseCache,
    SetupCache,
    changed_rows,
    index_key,
    membership_dirty_components,
    scalar_setup_key,
)
from repro.core.splitting import SplittingParameters
from repro.core.state import (
    SolverState,
    load_solver_state,
    save_solver_state,
)
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
        assert scalar_setup_key(1000.0, p, "fused") != base
        q = SplittingParameters(beta=0.4, theta=0.5)
        assert scalar_setup_key(1000.0, q) != base


# ----------------------------------------------------------------------
# SetupCache mechanics
# ----------------------------------------------------------------------
class TestSetupCache:
    def test_store_get_and_lru_eviction(self):
        cache = SetupCache(max_entries=2)
        cache.store(b"a", splitting="A")
        cache.store(b"b", splitting="B")
        assert cache.get(b"a").splitting == "A"  # freshens a
        cache.store(b"c", splitting="C")
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None and cache.get(b"c") is not None
        assert len(cache) == 2

    def test_record_counts_locally(self):
        cache = SetupCache()
        cache.record("hit")
        cache.record("miss")
        cache.record("miss")
        assert cache.stats == {"hit": 1, "miss": 2, "stale": 0}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SetupCache(max_entries=0)


# ----------------------------------------------------------------------
# Trust diff primitives
# ----------------------------------------------------------------------
class TestChangedRows:
    def test_identical_is_empty(self):
        M = sp.csr_matrix(np.eye(4))
        assert changed_rows(M, M.copy()).size == 0

    def test_single_value_change_marks_row(self):
        old = sp.csr_matrix(np.eye(4))
        new = old.copy()
        new[2, 2] = 5.0
        assert changed_rows(new, old).tolist() == [2]

    def test_added_entry_marks_row(self):
        old = sp.csr_matrix(np.eye(4))
        dense = old.toarray()
        dense[1, 3] = 1.0
        assert changed_rows(sp.csr_matrix(dense), old).tolist() == [1]

    def test_row_count_growth_marks_new_rows_only(self):
        old = sp.csr_matrix(np.eye(3))
        new = sp.csr_matrix(np.vstack([np.eye(3), [[0, 0, 1.0]]]))
        assert changed_rows(new, old).tolist() == [3]

    def test_column_count_mismatch_is_incomparable(self):
        assert changed_rows(
            sp.csr_matrix((2, 3)), sp.csr_matrix((2, 4))
        ) is None


class TestMembershipDiff:
    def test_equal_labels_all_clean(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert not membership_dirty_components(labels, labels, 3).any()

    def test_none_previous_all_dirty(self):
        labels = np.array([0, 1])
        assert membership_dirty_components(None, labels, 2).all()

    def test_split_component_dirty_others_clean(self):
        prev = np.array([0, 0, 0, 1, 1])
        new = np.array([0, 0, 2, 1, 1])  # one variable split off 0 -> 2
        dirty = membership_dirty_components(prev, new, 3)
        assert dirty[0] and dirty[2]
        assert not dirty[1]

    def test_merge_dirty(self):
        prev = np.array([0, 0, 1, 1])
        new = np.array([0, 0, 0, 0])
        assert membership_dirty_components(prev, new, 1).all()


# ----------------------------------------------------------------------
# ReuseCache trust decisions on synthetic systems
# ----------------------------------------------------------------------
def _system(n=6):
    H = sp.csr_matrix(sp.eye(n, format="csr"))
    B = sp.csr_matrix(
        ([1.0, -1.0, 1.0, -1.0], ([0, 0, 1, 1], [0, 1, 3, 4])), shape=(2, n)
    )
    E = sp.csr_matrix((0, n))
    labels = np.array([0, 0, 1, 2, 2, 3])
    return H, B, E, labels


class TestReuseCacheTrust:
    KEY = (1000.0, 0.5, 0.5, True)

    def test_first_run_nothing_trusted(self):
        H, B, E, labels = _system()
        trust = ReuseCache().begin_run(
            H, B, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        assert not trust.all_trusted
        assert not trust.shard_trusted(np.array([0]))
        assert trust.dirty_components == 4

    def test_identical_rerun_all_trusted(self):
        H, B, E, labels = _system()
        reuse = ReuseCache()
        reuse.begin_run(
            H, B, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        trust = reuse.begin_run(
            H.copy(), B.copy(), E.copy(),
            scalar_key=self.KEY, labels=labels.copy(), num_components=4,
        )
        assert trust.all_trusted
        assert trust.clean_components == 4

    def test_scalar_change_untrusts_everything(self):
        H, B, E, labels = _system()
        reuse = ReuseCache()
        reuse.begin_run(
            H, B, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        trust = reuse.begin_run(
            H, B, E, scalar_key=(999.0, 0.5, 0.5, True),
            labels=labels, num_components=4,
        )
        assert not trust.all_trusted
        assert not trust.shard_trusted(np.array([2]))

    def test_dirty_rows_scope_to_their_component(self):
        H, B, E, labels = _system()
        reuse = ReuseCache()
        reuse.begin_run(
            H, B, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        H2 = H.copy()
        H2[0, 0] = 7.0  # dirties variable 0 -> component 0 only
        trust = reuse.begin_run(
            H2, B, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        assert not trust.all_trusted
        assert not trust.shard_trusted(np.array([0, 1]))
        assert trust.shard_trusted(np.array([2]))
        assert trust.shard_trusted(np.array([3, 4]))
        assert trust.dirty_components == 1 and trust.clean_components == 3

    def test_b_row_change_dirties_both_generations_columns(self):
        H, B, E, labels = _system()
        reuse = ReuseCache()
        reuse.begin_run(
            H, B, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        B2 = B.copy()
        B2[1, 3] = 2.0  # touches variables 3, 4 -> component 2
        trust = reuse.begin_run(
            H, B2, E, scalar_key=self.KEY, labels=labels, num_components=4
        )
        assert not trust.shard_trusted(np.array([3, 4]))
        assert trust.shard_trusted(np.array([0, 1]))

    def test_monolithic_labels_none_is_all_or_nothing(self):
        H, B, E, _ = _system()
        reuse = ReuseCache()
        reuse.begin_run(H, B, E, scalar_key=self.KEY, labels=None)
        assert reuse.begin_run(
            H, B, E, scalar_key=self.KEY, labels=None
        ).all_trusted
        H2 = H.copy()
        H2[5, 5] = 3.0
        trust = reuse.begin_run(H2, B, E, scalar_key=self.KEY, labels=None)
        assert not trust.all_trusted
        assert not trust.shard_trusted(np.array([0]))


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
        assert reuse.last_trust.all_trusted

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
        assert "repro_setup_dirty_components" in text
        hits = reuse.stats["hit"]
        assert f"repro_setup_cache_hit {hits}" in text


# ----------------------------------------------------------------------
# Component labels persist with SolverState
# ----------------------------------------------------------------------
class TestLabelPersistence:
    def test_result_carries_labels_and_state_round_trips(self, tmp_path):
        design = _design(scale=0.02)
        result = _run(LegalizerConfig(), design)
        assert result.component_labels is not None
        state = SolverState.from_result(design, result)
        assert state.component_labels is not None

        path = str(tmp_path / "state.npz")
        save_solver_state(path, state)
        loaded = load_solver_state(path)
        np.testing.assert_array_equal(
            loaded.component_labels, state.component_labels
        )

    def test_state_without_labels_loads_as_none(self, tmp_path):
        path = str(tmp_path / "state.npz")
        save_solver_state(path, SolverState(z=np.zeros(4), fingerprint="f"))
        assert load_solver_state(path).component_labels is None


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

    def test_reuse_entries_are_lru_bounded(self):
        store = WarmStateStore(max_entries=2)
        for i in range(3):
            store.give_reuse(f"k{i}", ReuseCache())
        assert store.stats()["reuse_entries"] == 2
        assert store.take_reuse("k0") is None
        assert store.take_reuse("k2") is not None
