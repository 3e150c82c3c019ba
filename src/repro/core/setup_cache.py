"""Setup reuse for ECO re-legalization (the factorization cache).

A warm-started ECO re-run needs few sweeps; what then dominates it is
*setup*: slicing the per-shard blocks out of the global matrices, the
Woodbury/``pttrf`` factorizations of every splitting, and assembling the
per-shard KKT matrices.  All of that depends only on the
matrices ``(H, B, E)`` and the scalars ``(λ, β*, θ*)`` — not on the
right-hand sides ``(p, b)`` that a position-only ECO perturbs, nor on the
kernel backend, which only sets how often the solve tests convergence.

:class:`ReuseCache` is the caller-facing handle threaded through
``legalize(..., reuse=)``.  It keeps **one generation**: the previous
run's ``(H, B, E)`` and scalar key, and that run's per-shard setups (the
prefactorized :class:`~repro.core.splitting.LegalizationSplitting` plus
the assembled KKT matrix ``A``) under their *index keys* — a digest of
the exact global index sets ``(variables, b_rows, e_rows)`` a shard was
sliced from.  The design is the unit of trust: :meth:`ReuseCache.begin_run`
trusts the previous setups only when all three matrices are bitwise
identical and the scalars equal.  A trusted shard's setup is then what a
cold build would produce (same slices, same per-row entry order, same
factorizations — hence identical sweeps), and ``q = [p; −b]`` is always
rebuilt fresh.  Any other run rebuilds every shard; at its end, its
setups replace the old ones.

Cache taxonomy (``setup.cache_{hit,miss,stale}`` counters, one increment
per shard):

* **hit** — trusted run, previous setup under the shard's key: reused.
* **miss** — no previous setup under the key (first run, or a shard
  whose index sets changed): built.
* **stale** — a previous setup exists under the key but the run is not
  trusted (some matrix or scalar changed): rebuilt.

A :class:`ReuseCache` must not be shared by *concurrent* runs — each
run swaps its setups in as the one kept generation when it ends
(:meth:`ReuseCache.end_run`), so a concurrent run could take setups
from a generation its trust decision never compared.  The service
checks a cache out of the :class:`~repro.service.store.WarmStateStore`
for the duration of a request and checks it back in afterwards, so
concurrent requests under one key simply miss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import FunctionType, ModuleType
from typing import Any, Dict, Optional, Tuple

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


@dataclass
class ReuseCache:
    """The setup-reuse handle for ``legalize(..., reuse=)``.

    Pass the same instance to consecutive runs of the same (possibly
    perturbed) design.  Not safe for concurrent runs (see module doc).
    """

    #: The previous run's ``(H, B, E, scalar key)``; None before one.
    inputs: Optional[Tuple[Any, ...]] = None
    #: The previous run's setups: index key → ``(splitting, A)``.
    setups: Dict[bytes, Tuple[Any, sp.csr_matrix]] = field(
        default_factory=dict
    )
    #: Local mirror of the ``setup.cache_*`` counters, for callers
    #: running outside a telemetry session.
    stats: Dict[str, int] = field(
        default_factory=lambda: {"hit": 0, "miss": 0, "stale": 0}
    )

    def begin_run(
        self,
        H: sp.csr_matrix,
        B: sp.csr_matrix,
        E: sp.csr_matrix,
        scalar_key: tuple,
    ) -> bool:
        """Whether this run may take the previous run's setups: its
        matrices are bitwise identical and its scalars equal."""
        if self.inputs is None:
            return False
        *matrices, key = self.inputs
        return key == scalar_key and all(
            _csr_identical(new, old)
            for new, old in zip((H, B, E), matrices)
        )

    def record(self, kind: str) -> None:
        """Count one hit/miss/stale, locally and in telemetry."""
        self.stats[kind] += 1
        tel = current_session()
        if tel.enabled:
            tel.metrics.counter(f"setup.cache_{kind}").inc()

    def end_run(
        self,
        H: sp.csr_matrix,
        B: sp.csr_matrix,
        E: sp.csr_matrix,
        scalar_key: tuple,
        setups: Dict[bytes, Tuple[Any, sp.csr_matrix]],
    ) -> None:
        """Make this run's inputs and setups the one kept generation.

        Called only once every shard is built, so a run that fails
        part-way leaves the previous generation whole.
        """
        self.inputs = (H, B, E, scalar_key)
        self.setups = setups

    def nbytes(self) -> int:
        """Bytes of the distinct numpy buffers the cache keeps alive.

        Walks the kept matrices and setups (attributes, containers and
        the arrays bound into solver closures' defaults) and counts each
        underlying buffer once, so a view charges the whole array it
        keeps alive.  Factorization objects that hide their arrays are
        not counted.
        """
        buffers: Dict[int, int] = {}
        seen = set()
        stack: list = [self.inputs, self.setups]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                buffers[id(obj)] = obj.nbytes
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif isinstance(obj, FunctionType):
                stack.extend(obj.__defaults__ or ())
            elif hasattr(obj, "__dict__") and not isinstance(
                obj, (type, ModuleType)
            ):
                stack.extend(vars(obj).values())
        return sum(buffers.values())


def scalar_setup_key(lam: float, params) -> tuple:
    """The scalar inputs a splitting's setup depends on."""
    beta = params.beta if params is not None else 0.5
    theta = params.theta if params is not None else 0.5
    return (float(lam), float(beta), float(theta))
