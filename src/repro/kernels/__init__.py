"""Pluggable sweep-kernel backends for the MMSIM solver drives.

This package owns the stacked Woodbury/``pttrs`` sweep primitives (and the
direct ``csr_matvec`` they build on) behind a named backend registry:

* ``reference`` — the numpy/LAPACK path, run one sweep per step by
  :class:`ReferenceSweepRunner` through the shared solver drives;
  bit-identical to the plain per-sweep iteration and the default;
* ``fused`` — always-available pure-numpy backend running K sweeps per
  Python-level step with preallocated scratch (see
  :mod:`repro.kernels.fused`);
* ``numba`` — optional JIT backend, compiled lazily, silently degraded to
  reference when :mod:`numba` is absent (install the ``kernels-numba``
  extra).

Selection flows through ``LegalizerConfig(kernel_backend=...)`` / the CLI
``--kernel-backend`` flag; every non-reference backend is probe-gated at
splitting setup (see :mod:`repro.kernels.registry`) and differentially
tested by the fuzz oracle under its documented tolerance class.  See
docs/PERFORMANCE.md §5 for the operational guide, including how to add a
backend.
"""

from repro.kernels.base import DEFAULT_BLOCK, KernelBackend, SweepRunner
from repro.kernels.fused import FusedBackend, FusedSweepRunner
from repro.kernels.numba_backend import NumbaBackend, NumbaSweepRunner
from repro.kernels.reference import (
    PROBE_CACHE_CAP,
    ReferenceBackend,
    ReferenceSweepRunner,
    csr_matvec_into,
    probe_cache_size,
    probe_vector,
    reference_sweeps,
)
from repro.kernels.registry import (
    KERNEL_VERIFY_TOL,
    arm_backend,
    available_backends,
    get_backend,
    known_backend_names,
    probe_verify,
    register_backend,
    unregister_backend,
)

__all__ = [
    "DEFAULT_BLOCK",
    "KERNEL_VERIFY_TOL",
    "PROBE_CACHE_CAP",
    "KernelBackend",
    "SweepRunner",
    "ReferenceBackend",
    "ReferenceSweepRunner",
    "FusedBackend",
    "FusedSweepRunner",
    "NumbaBackend",
    "NumbaSweepRunner",
    "arm_backend",
    "available_backends",
    "csr_matvec_into",
    "get_backend",
    "known_backend_names",
    "probe_cache_size",
    "probe_verify",
    "probe_vector",
    "reference_sweeps",
    "register_backend",
    "unregister_backend",
]
