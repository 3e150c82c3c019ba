"""Machine-speed calibration for timings taken on a shared machine.

On the shared 2-vCPU machine the benchmark was built on, CPU speed drifts
by up to ±30% over tens of seconds: a fixed pure-Python loop took
0.12-0.23 s within one minute, in CPU time as much as in wall time.  One
30-second run sees roughly one speed, so raw run medians spread by 20-30%
between runs (``cold-tail`` p50: 0.18-0.29 s over ten runs).  Timings
are therefore reported scaled to a reference speed::

    scaled = measured * REFERENCE_SECONDS / kernel

where ``kernel`` is the CPU time of a fixed calibration kernel, the
benchmark's own code with no call into the program:

* requests: the kernel run right after the request, in the caller's
  thread, while the program is idle (over five seeds ``cold-tail`` p50
  spread fell from 16.5% raw to 3.4% scaled);
* set-up samples: a burst of kernels right after each sample.

Raw values are kept in the run report and printed next to the scaled
ones.  A change that slows the kernel itself, for example by leaving busy
threads behind, shows as a moved ``raw machine.kernel_s``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench import stats

#: The kernel's CPU time at the reference speed.  Normalized times are
#: in seconds at that speed; the value is near the kernel's time on the
#: 2-vCPU machine the benchmark was tuned on, so normalized and raw
#: seconds read alike there.
REFERENCE_SECONDS = 0.006

_VALUES = np.random.default_rng(0).random(4096)


def kernel_seconds() -> float:
    """CPU time of one fixed mix of interpreter and small-array work,
    the same two kinds of work a legalization request does."""
    start = time.thread_time()
    table = {}
    total = 0
    for i in range(24000):
        total += i * i
        table[i & 1023] = total
    order = np.argsort(_VALUES, kind="stable")
    acc = _VALUES[order]
    for _ in range(24):
        acc = np.cumsum(np.sqrt(acc * acc + 1.0)) / acc.size
    return time.thread_time() - start


def idle_kernel_seconds(runs: int = 5) -> float:
    """Median of a few kernel runs, for moments when nothing else of the
    benchmark is running (after each set-up sample)."""
    return statistics.median(kernel_seconds() for _ in range(runs))


def normalize(seconds: float, kernel: float) -> float:
    return seconds * REFERENCE_SECONDS / kernel


def end_to_end(latencies, kernels, window, setups, displacement, inputs, rss):
    """One run's end-to-end metrics as ``{name: (value, samples)}``, with
    the raw values and samples they were computed from.

    *latencies* and *kernels* pair each request with the kernel run right
    after it; *setups* pairs each set-up time with the kernel run right
    after it.  Throughput is scaled by the run's median kernel time.
    """
    n = len(latencies)
    scaled = [normalize(t, k) for t, k in zip(latencies, kernels)]
    setup_scaled = [normalize(t, k) for t, k in setups]
    setup_raw = [t for t, _ in setups]
    tail = n >= stats.MIN_TAIL_SAMPLES
    kernel = statistics.median(kernels) if n else REFERENCE_SECONDS
    metrics = {
        "setup_s": (statistics.median(setup_scaled), len(setups)),
        "latency_p50_s": (stats.p50(scaled), n) if n else None,
        "latency_p90_s": (stats.p90(scaled), n) if tail else None,
        "throughput_rps": (n / window * kernel / REFERENCE_SECONDS, n) if n else None,
        "displacement_sites": (displacement, inputs),
        "peak_rss_mb": (rss, 1),
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "latency_p50_s": stats.p50(latencies) if n else None,
        "latency_p90_s": stats.p90(latencies) if tail else None,
        "throughput_rps": n / window if n else None,
        "machine.kernel_s": kernel,
    }
    samples = {
        "latency_s": latencies, "kernel_s": kernels,
        "setup_s": setup_raw, "setup_kernel_s": [k for _, k in setups],
    }
    return {"metrics": metrics, "raw": raw, "samples": samples}
