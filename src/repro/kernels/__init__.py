"""The MMSIM sweep primitives (see :mod:`repro.kernels.reference`).

There is one sweep.  ``LegalizerConfig(kernel_backend=...)`` picks how
often the solver drives test convergence on it: ``reference`` after
every sweep, ``fused`` every ``MMSIMOptions.block = 8`` sweeps (see
docs/PERFORMANCE.md §5).
"""

from repro.kernels.reference import (
    PROBE_CACHE_CAP,
    ReferenceSweepRunner,
    csr_matvec_into,
    probe_cache_size,
    probe_vector,
    rhs_operator,
)

__all__ = [
    "PROBE_CACHE_CAP",
    "ReferenceSweepRunner",
    "csr_matvec_into",
    "probe_cache_size",
    "probe_vector",
    "rhs_operator",
]
