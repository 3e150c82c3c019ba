"""Fresh-process set-up probe for the library workloads.

Imports ``repro``, builds ``MMSIMLegalizer()`` and legalizes one small
design, which fills the legalizer's lazy state; then prints ``ready
<seconds spent generating the design>`` so the parent can leave input
generation out of the set-up time.  Run with ``src`` on the path::

    python3 perfbench/setup_probe.py PROFILE SCALE SEED
"""

import sys
import time

import repro  # noqa: F401  (the import is part of what is timed)
from repro.core.legalizer import MMSIMLegalizer

legalizer = MMSIMLegalizer()
gen_start = time.perf_counter()
from repro.benchgen import generate_benchmark  # noqa: E402

profile, scale, seed = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
design = generate_benchmark(profile, scale=scale, seed=seed)
gen_seconds = time.perf_counter() - gen_start
legalizer.legalize(design)
print(f"ready {gen_seconds!r}", flush=True)
