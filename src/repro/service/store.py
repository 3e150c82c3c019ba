"""The keyed warm-state store: ``design_key → SolverState``.

The legalization service holds one :class:`WarmStateStore` for its whole
lifetime.  After every successful solve the design's KKT solution is
``put`` under the request's key; the next request for the same key gets
it back and warm-starts in a handful of sweeps.  The store does **not**
decide whether a state is safe to use — that stays with the existing
fingerprint staleness guard (:meth:`repro.core.state.SolverState.matches`,
applied inside ``legalize``/``prepare``), so a perturbed-but-structurally-
identical design warm-starts while a structurally different design under
a reused key falls back to a cold start with an explicit rejection
reason.

Eviction is LRU over keys with an optional TTL, bounded both by key
count and by total byte size: each stored ``z`` vector plus the array
bytes of each checked-in setup-reuse cache (``sys.getsizeof`` is wrong
for numpy arrays; ``nbytes`` plus a small constant is the honest
accounting).  A key's state and cache are evicted together.  All
operations are thread-safe — worker threads of the service read and
write concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.setup_cache import ReuseCache
from repro.core.state import SolverState

#: Fixed per-entry overhead charged on top of ``z.nbytes`` (key, metadata
#: strings, dict slot) — a rounding in the accounting, not a measurement.
ENTRY_OVERHEAD_BYTES = 512


@dataclass
class _Entry:
    """What the store keeps under one key; either half may be absent."""

    state: Optional[SolverState] = None
    state_bytes: int = 0
    stored_at: float = 0.0
    reuse: Optional[ReuseCache] = None
    reuse_bytes: int = 0


def state_size_bytes(state: SolverState) -> int:
    """Approximate resident size of one stored state."""
    return int(state.z.nbytes) + ENTRY_OVERHEAD_BYTES


class WarmStateStore:
    """LRU + TTL cache of per-design solver states and setup caches.

    ``max_entries`` (keys) and ``max_bytes`` (states plus checked-in
    caches) bound the cache (either may be None for unbounded);
    ``ttl_seconds`` expires states lazily on access (an expired state
    counts as a miss and is dropped with its key's cache).  The
    ``clock`` is injectable for deterministic TTL tests.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 1024,
        max_bytes: Optional[int] = 256 * 1024 * 1024,
        ttl_seconds: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SolverState]:
        """The state under *key*, freshening its LRU position; None on a
        miss or an expired entry."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.state is None:
                self.misses += 1
                return None
            if (
                self.ttl_seconds is not None
                and now - entry.stored_at > self.ttl_seconds
            ):
                self._drop(key, entry)
                self.expirations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.state

    def put(self, key: str, state: SolverState) -> None:
        """Store *state* under *key* (replacing any previous state) and
        evict LRU entries until the bounds hold again."""
        size = state_size_bytes(state)
        now = self._clock()
        with self._lock:
            entry = self._touch(key)
            self._bytes += size - entry.state_bytes
            entry.state, entry.state_bytes, entry.stored_at = state, size, now
            self._evict_locked()

    def invalidate(self, key: str) -> bool:
        """Drop *key*; True when it was present."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._drop(key, entry)
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    # Setup-reuse caches ride alongside the warm states under the same
    # keys, with **checkout** semantics: a ReuseCache holds mutable sweep
    # buffers, so it must never be shared between concurrent batches.
    # ``take_reuse`` removes the cache from the store (the borrower owns
    # it exclusively) and ``give_reuse`` returns it when the batch is
    # done; a cache in flight when its key is invalidated is simply not
    # re-accepted as authoritative — every run re-checks its matrices
    # against the cached ones before taking a setup anyway.
    def take_reuse(self, key: str) -> Optional[ReuseCache]:
        """Check out (remove and return) the reuse cache under *key*; a
        checked-out cache no longer counts against ``max_bytes``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.reuse is None:
                return None
            cache = entry.reuse
            self._bytes -= entry.reuse_bytes
            entry.reuse, entry.reuse_bytes = None, 0
            if entry.state is None:
                del self._entries[key]
            return cache

    def give_reuse(self, key: str, cache: ReuseCache) -> None:
        """Check a reuse cache back in under *key*, charge its array
        bytes, and evict LRU keys until the bounds hold again."""
        size = cache.nbytes()
        with self._lock:
            entry = self._touch(key)
            self._bytes += size - entry.reuse_bytes
            entry.reuse, entry.reuse_bytes = cache, size
            self._evict_locked()

    # ------------------------------------------------------------------
    def _touch(self, key: str) -> _Entry:
        """*key*'s entry (created empty if absent), made most recent."""
        entry = self._entries.pop(key, None) or _Entry()
        self._entries[key] = entry
        return entry

    def _drop(self, key: str, entry: _Entry) -> None:
        del self._entries[key]
        self._bytes -= entry.state_bytes + entry.reuse_bytes

    def _evict_locked(self) -> None:
        while (
            self.max_entries is not None
            and len(self._entries) > self.max_entries
        ) or (self.max_bytes is not None and self._bytes > self.max_bytes):
            if len(self._entries) <= 1:
                # A single oversized key simply occupies the whole byte
                # budget until replaced — never evict the key that was
                # just written.
                break
            key, entry = next(iter(self._entries.items()))
            self._drop(key, entry)
            self.evictions += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(e.state is not None for e in self._entries.values())

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.state is not None

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = self._entries.values()
            return {
                "entries": sum(e.state is not None for e in entries),
                "reuse_entries": sum(e.reuse is not None for e in entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "expirations": self.expirations,
                "evictions": self.evictions,
            }
