"""WarmStateStore: LRU + TTL + byte-budget eviction, thread safety."""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core.setup_cache import ReuseCache
from repro.core.state import SolverState
from repro.service.store import ENTRY_OVERHEAD_BYTES, WarmStateStore


def make_state(n: int = 8, fill: float = 1.0) -> SolverState:
    return SolverState(z=np.full(n, fill), fingerprint=f"fp{n}")


def make_cache(n: int = 64) -> ReuseCache:
    """A reuse cache keeping one n-float64 array alive."""
    return ReuseCache(setups={b"shard": (np.zeros(n), None)})


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_get_miss_then_hit():
    store = WarmStateStore()
    assert store.get("k") is None
    state = make_state()
    store.put("k", state)
    assert store.get("k") is state
    assert store.hits == 1 and store.misses == 1
    assert "k" in store and len(store) == 1


def test_put_replaces_and_accounts_bytes():
    store = WarmStateStore()
    store.put("k", make_state(8))
    first = store.size_bytes
    store.put("k", make_state(16))
    assert len(store) == 1
    assert store.size_bytes == first + 8 * 8  # 8 more float64s


def test_lru_eviction_by_entry_count():
    store = WarmStateStore(max_entries=2)
    store.put("a", make_state())
    store.put("b", make_state())
    store.get("a")          # freshen a → b is now LRU
    store.put("c", make_state())
    assert "a" in store and "c" in store and "b" not in store
    assert store.evictions == 1


def test_eviction_by_byte_budget():
    per_entry = 8 * 8 + ENTRY_OVERHEAD_BYTES
    store = WarmStateStore(max_entries=None, max_bytes=2 * per_entry)
    store.put("a", make_state())
    store.put("b", make_state())
    assert len(store) == 2
    store.put("c", make_state())
    assert len(store) == 2 and "a" not in store
    assert store.size_bytes <= 2 * per_entry


def test_checked_in_caches_count_against_max_bytes():
    per_state = 8 * 8 + ENTRY_OVERHEAD_BYTES
    per_cache = 64 * 8
    # Room for two states and one cache, not two states and two caches.
    store = WarmStateStore(max_entries=None, max_bytes=2 * per_state + per_cache)
    store.put("a", make_state())
    store.give_reuse("a", make_cache())
    store.put("b", make_state())
    assert "a" in store and "b" in store
    store.give_reuse("b", make_cache())
    # The least recently used key goes, its state and cache together.
    assert "a" not in store and store.take_reuse("a") is None
    assert "b" in store and store.evictions == 1
    assert store.size_bytes == store.stats()["bytes"] == per_state + per_cache
    # A checked-out cache no longer counts.
    assert store.take_reuse("b") is not None
    assert store.size_bytes == per_state


def test_single_oversized_entry_is_kept():
    store = WarmStateStore(max_entries=None, max_bytes=100)
    store.put("big", make_state(64))  # way over budget on its own
    assert "big" in store  # never evict the only entry for byte pressure
    store.put("big2", make_state(64))
    assert "big" not in store and "big2" in store


def test_ttl_expiry_counts_as_miss():
    clock = FakeClock()
    store = WarmStateStore(ttl_seconds=10.0, clock=clock)
    store.put("k", make_state())
    clock.now = 9.0
    assert store.get("k") is not None
    clock.now = 20.0
    assert store.get("k") is None
    assert store.expirations == 1 and store.misses == 1
    assert "k" not in store


def test_invalidate_and_clear():
    store = WarmStateStore()
    store.put("k", make_state())
    assert store.invalidate("k") is True
    assert store.invalidate("k") is False
    store.put("a", make_state())
    store.put("b", make_state())
    store.clear()
    assert len(store) == 0 and store.size_bytes == 0


def test_stats_shape():
    store = WarmStateStore(max_entries=5, max_bytes=10_000, ttl_seconds=3.0)
    store.put("k", make_state())
    store.get("k")
    store.get("nope")
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["max_entries"] == 5 and stats["ttl_seconds"] == 3.0
    assert stats["bytes"] == store.size_bytes > 0


def test_concurrent_put_get_is_consistent():
    """Hammer the store from many threads; the byte accounting must
    balance exactly afterwards (a race would drift it)."""
    store = WarmStateStore(max_entries=16)
    errors = []

    def worker(tid: int) -> None:
        try:
            for i in range(200):
                key = f"k{(tid * 7 + i) % 24}"
                if i % 3 == 0:
                    store.put(key, make_state())
                elif i % 3 == 1:
                    store.give_reuse(key, store.take_reuse(key) or make_cache())
                else:
                    store.get(key)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    per_entry = 8 * 8 + ENTRY_OVERHEAD_BYTES
    stats = store.stats()
    assert len(store) <= 16 and stats["reuse_entries"] <= 16
    assert store.size_bytes == (
        len(store) * per_entry + stats["reuse_entries"] * 64 * 8
    )
