"""Incremental setup reuse for ECO re-legalization (the factorization cache).

A warm-started ECO re-run needs few sweeps; what then dominates it is
*setup*: slicing the per-shard blocks out of the global matrices, the
Woodbury/``pttrf`` factorizations of every splitting, and assembling the
per-shard KKT matrices.  All of that depends only on the
matrices ``(H, B, E)``, the scalars ``(λ, β*, θ*)``, and the kernel
backend — not on the right-hand sides ``(p, b)`` that a position-only ECO
perturbs.

This module makes that setup incremental:

* :class:`SetupCache` memoizes one :class:`SetupEntry` (a prefactorized
  :class:`~repro.core.splitting.LegalizationSplitting` plus the assembled
  KKT matrix ``A``) per *index key* — a digest of the exact global index
  sets ``(variables, b_rows, e_rows)`` a shard was sliced from.  ``q = [p; −b]`` is always rebuilt fresh, so a cache hit is
  bit-identical to a cold build by construction: same matrices, same
  per-row entry order, same factorizations — hence identical sweeps.

* :class:`ReuseCache` is the caller-facing handle threaded through
  ``legalize(..., reuse=)``.  It decides which entries may be *trusted*
  this run by diffing the new global blocks against the previous run's:

  - all three matrices bitwise identical (the unchanged-design re-run)
    → every entry is trusted wholesale, no per-shard slicing at all;
  - otherwise a **dirty-component diff**: rows of H/B/E whose stored
    content changed mark their variables dirty, coupling components whose
    membership changed (against the previous run's labels) are dirty, and
    only shards touching dirty variables rebuild.  An entry that exists
    under a matching index key but is not trusted is *stale* — it is
    dropped and rebuilt, never served.

Cache taxonomy (``setup.cache_{hit,miss,stale}`` counters, one increment
per shard splitting built or reused):

* **hit** — trusted entry found: the splitting and A are reused.
* **miss** — no entry under the key (first run, evicted, or a shard whose
  index sets changed): built and inserted.
* **stale** — an entry exists but the trust diff says its content
  changed: rebuilt and replaced.

A :class:`ReuseCache` must not be shared by *concurrent* runs — the
cached splittings carry mutable sweep buffers.  The service checks a
cache out of the :class:`~repro.service.store.WarmStateStore` for the
duration of a request and checks it back in afterwards, so concurrent
requests under one key simply miss.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.telemetry import current_session

def index_key(
    variables: np.ndarray, b_rows: np.ndarray, e_rows: np.ndarray
) -> bytes:
    """Digest of the exact global index sets one setup was sliced from."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (variables, b_rows, e_rows):
        a = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.digest()


@dataclass
class SetupEntry:
    """One memoized setup: the prefactorized splitting and (optionally)
    the assembled KKT matrix A.  ``q`` is never cached."""

    splitting: Any = None
    A: Optional[sp.csr_matrix] = None


class SetupCache:
    """Bounded, thread-safe ``index key → SetupEntry`` store.

    ``stats`` mirrors the telemetry counters for callers running outside
    a telemetry session (tests, offline scripts).
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[bytes, SetupEntry]" = OrderedDict()
        self.stats: Dict[str, int] = {"hit": 0, "miss": 0, "stale": 0}

    def get(self, key: bytes) -> Optional[SetupEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def store(
        self,
        key: bytes,
        splitting: Any = None,
        A: Optional[sp.csr_matrix] = None,
    ) -> SetupEntry:
        """Insert (or replace) the entry under *key*."""
        entry = SetupEntry(splitting=splitting, A=A)
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def record(self, kind: str) -> None:
        """Count one hit/miss/stale, locally and in telemetry."""
        with self._lock:
            self.stats[kind] += 1
        tel = current_session()
        if tel.enabled:
            tel.metrics.counter(f"setup.cache_{kind}").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


# ----------------------------------------------------------------------
# Global-block diffing
# ----------------------------------------------------------------------
def _csr_identical(new: sp.csr_matrix, old: sp.csr_matrix) -> bool:
    """Bitwise equality of two CSR matrices' stored content."""
    return (
        new.shape == old.shape
        and np.array_equal(new.indptr, old.indptr)
        and np.array_equal(new.indices, old.indices)
        and np.array_equal(_data_bits(new), _data_bits(old))
    )


def _data_bits(M: sp.csr_matrix) -> np.ndarray:
    """The stored values as raw int64 bit patterns (exact comparison)."""
    data = np.ascontiguousarray(M.data, dtype=np.float64)
    return data.view(np.int64)


def _triplets(M: sp.csr_matrix) -> np.ndarray:
    """``(nnz, 3)`` int64 array of (row, col, value-bits) triplets."""
    coo = M.tocoo()
    out = np.empty((coo.nnz, 3), dtype=np.int64)
    out[:, 0] = coo.row
    out[:, 1] = coo.col
    out[:, 2] = np.ascontiguousarray(coo.data, dtype=np.float64).view(
        np.int64
    )
    return out


def changed_rows(
    new: sp.csr_matrix, old: sp.csr_matrix
) -> Optional[np.ndarray]:
    """Row indices whose stored content differs between *new* and *old*.

    Works across differing row counts (a vanished or added row is a
    changed row); returns None when the matrices are incomparable
    (different column counts — every row must be considered dirty).
    Comparison is bitwise on the stored values: an entry present in
    exactly one of the two multisets of (row, col, bits) triplets marks
    its row changed.
    """
    if new.shape[1] != old.shape[1]:
        return None
    if _csr_identical(new, old):
        return np.empty(0, dtype=np.intp)
    both = np.concatenate([_triplets(new), _triplets(old)])
    if both.size == 0:
        # Same column count, no stored entries anywhere, but not
        # identical — only the row counts differ; no rows carry content.
        return np.empty(0, dtype=np.intp)
    uniq, counts = np.unique(both, axis=0, return_counts=True)
    odd = uniq[counts % 2 == 1]
    return np.unique(odd[:, 0]).astype(np.intp)


def _columns_of_rows(M: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """All stored column indices of the given rows (rows beyond the
    matrix are ignored — they exist only in the other generation)."""
    rows = rows[rows < M.shape[0]]
    if rows.size == 0:
        return np.empty(0, dtype=np.intp)
    cols = [
        M.indices[M.indptr[r]: M.indptr[r + 1]] for r in rows.tolist()
    ]
    if not cols:
        return np.empty(0, dtype=np.intp)
    return np.unique(np.concatenate(cols)).astype(np.intp)


def membership_dirty_components(
    prev_labels: Optional[np.ndarray],
    labels: np.ndarray,
    num_components: int,
) -> np.ndarray:
    """Boolean mask over *new* components whose membership changed.

    A new component is clean iff its variables all carried one previous
    label, and that previous component contained exactly those variables
    (no splits, merges, or migrations).  Vectorized via label-pair
    counting — no Python loop over components.
    """
    dirty = np.ones(num_components, dtype=bool)
    if prev_labels is None or len(prev_labels) != len(labels):
        return dirty
    if np.array_equal(prev_labels, labels):
        dirty[:] = False
        return dirty
    prev = np.asarray(prev_labels, dtype=np.int64)
    new = np.asarray(labels, dtype=np.int64)
    stride = int(prev.max()) + 1 if prev.size else 1
    pair = new * stride + prev
    uniq, counts = np.unique(pair, return_counts=True)
    new_of_pair = (uniq // stride).astype(np.intp)
    prev_of_pair = (uniq % stride).astype(np.intp)
    dirty[:] = False
    # More than one previous label inside a new component.
    dirty |= np.bincount(new_of_pair, minlength=num_components) > 1
    # Single previous label, but the previous component was larger (a
    # split/migration): the pair count must equal the old component size.
    prev_sizes = np.bincount(prev, minlength=stride)
    shrunk = counts != prev_sizes[prev_of_pair]
    dirty[new_of_pair[shrunk]] = True
    return dirty


@dataclass
class TrustInfo:
    """Outcome of one run's trust diff against the previous generation."""

    #: Every cached entry may be reused (globals bitwise identical).
    all_trusted: bool = False
    #: Per-variable trust mask (None when all_trusted decides alone).
    var_mask: Optional[np.ndarray] = None
    dirty_components: int = 0
    clean_components: int = 0

    def shard_trusted(self, variables: np.ndarray) -> bool:
        if self.all_trusted:
            return True
        if self.var_mask is None:
            return False
        return bool(self.var_mask[variables].all())


@dataclass
class _Globals:
    """One run's setup-determining inputs, kept for the next run's diff."""

    H: sp.csr_matrix
    B: sp.csr_matrix
    E: sp.csr_matrix
    scalar_key: tuple
    labels: Optional[np.ndarray]


@dataclass
class ReuseCache:
    """The incremental-setup handle for ``legalize(..., reuse=)``.

    Pass the same instance to consecutive runs of the same (possibly
    perturbed) design; it carries the previous run's global blocks and
    component labels for the dirty diff, plus the :class:`SetupCache` of
    memoized splittings.  Not safe for concurrent runs (see module doc).
    """

    max_entries: int = 8192
    setups: SetupCache = None  # type: ignore[assignment]
    prev: Optional[_Globals] = None
    #: Trust info of the most recent :meth:`begin_run` (diagnostics).
    last_trust: Optional[TrustInfo] = None
    runs: int = 0

    def __post_init__(self) -> None:
        if self.setups is None:
            self.setups = SetupCache(max_entries=self.max_entries)

    # ------------------------------------------------------------------
    def begin_run(
        self,
        H: sp.csr_matrix,
        B: sp.csr_matrix,
        E: sp.csr_matrix,
        scalar_key: tuple,
        labels: Optional[np.ndarray] = None,
        num_components: int = 0,
    ) -> TrustInfo:
        """Diff this run's setup inputs against the previous run's and
        decide which cached entries may be trusted; then adopt this run's
        inputs as the new baseline.

        ``labels`` is the coupling-component labelling (None for the
        one-shard partition of ``shard=False``, where trust is
        all-or-nothing).
        """
        prev = self.prev
        self.prev = _Globals(
            H=H, B=B, E=E, scalar_key=scalar_key, labels=labels
        )
        self.runs += 1
        trust = self._trust(prev, H, B, E, scalar_key, labels, num_components)
        self.last_trust = trust
        tel = current_session()
        if tel.enabled and labels is not None:
            tel.metrics.gauge("setup.dirty_components").set(
                trust.dirty_components
            )
            tel.metrics.gauge("setup.clean_components").set(
                trust.clean_components
            )
        return trust

    def _trust(
        self, prev, H, B, E, scalar_key, labels, num_components
    ) -> TrustInfo:
        if prev is None or prev.scalar_key != scalar_key:
            return TrustInfo(dirty_components=num_components)
        if H.shape[0] != prev.H.shape[0]:
            return TrustInfo(dirty_components=num_components)
        identical = (
            _csr_identical(H, prev.H)
            and _csr_identical(B, prev.B)
            and _csr_identical(E, prev.E)
        )
        labels_equal = (
            labels is None
            and prev.labels is None
        ) or (
            labels is not None
            and prev.labels is not None
            and np.array_equal(labels, prev.labels)
        )
        if identical and labels_equal:
            return TrustInfo(
                all_trusted=True, clean_components=num_components
            )
        if labels is None:
            # One shard: no finer granularity than the whole system.
            return TrustInfo()
        n = H.shape[0]
        dirty_vars = np.zeros(n, dtype=bool)
        h_rows = changed_rows(H, prev.H)
        if h_rows is None:
            return TrustInfo(dirty_components=num_components)
        dirty_vars[h_rows] = True
        for new_m, old_m in ((B, prev.B), (E, prev.E)):
            rows = changed_rows(new_m, old_m)
            if rows is None:
                return TrustInfo(dirty_components=num_components)
            if rows.size:
                dirty_vars[_columns_of_rows(new_m, rows)] = True
                dirty_vars[_columns_of_rows(old_m, rows)] = True
        dirty_comp = membership_dirty_components(
            prev.labels, labels, num_components
        )
        dirty_comp |= (
            np.bincount(
                labels[dirty_vars].astype(np.intp),
                minlength=num_components,
            )
            > 0
        )
        mask = ~dirty_comp[labels]
        n_dirty = int(dirty_comp.sum())
        return TrustInfo(
            var_mask=mask,
            dirty_components=n_dirty,
            clean_components=num_components - n_dirty,
        )

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        return dict(self.setups.stats)

    @property
    def nbytes(self) -> int:
        """Rough resident-size estimate (for store accounting only)."""
        total = 0
        prev = self.prev
        if prev is not None:
            for M in (prev.H, prev.B, prev.E):
                total += int(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)
            if prev.labels is not None:
                total += int(prev.labels.nbytes)
        with self.setups._lock:
            for entry in self.setups._entries.values():
                if entry.A is not None:
                    total += int(
                        entry.A.data.nbytes
                        + entry.A.indices.nbytes
                        + entry.A.indptr.nbytes
                    )
                if entry.splitting is not None:
                    # Splittings hold a handful of same-order sparse
                    # blocks and dense bands; approximate with A's size
                    # when available, else a fixed floor.
                    total += (
                        int(
                            entry.A.data.nbytes
                            + entry.A.indices.nbytes
                            + entry.A.indptr.nbytes
                        )
                        if entry.A is not None
                        else 4096
                    )
        return total


def scalar_setup_key(
    lam: float, params, kernel_backend: str = "reference"
) -> tuple:
    """The scalar inputs a splitting's setup depends on.

    ``kernel_backend`` joins the identity because a cached splitting
    carries its armed sweep runner: a cache built under one backend must
    never serve a run requesting another.
    """
    beta = params.beta if params is not None else 0.5
    theta = params.theta if params is not None else 0.5
    return (float(lam), float(beta), float(theta), str(kernel_backend))
