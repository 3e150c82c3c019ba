"""Gate a fresh BENCH_legalize.json run against the committed baseline.

CI runners are not the machine the baseline was recorded on, so raw
wall-clock comparisons are meaningless: the whole run may be uniformly
2x slower on a cold shared vCPU.  What a *code* regression looks like
is one configuration slowing down relative to the others.  So:

1. For every (scale, config) present in both reports, compute
   ``ratio = new_wall / baseline_wall``.
2. The median of all ratios is the machine factor — how much
   slower/faster this host is overall.
3. Fail if any config's ratio exceeds ``machine_factor * (1 + threshold)``
   (default threshold 0.2, i.e. a >20% relative wall-clock regression).

Correctness gates ride along: the run fails outright if the new report
is marked diverged, or any run lost sharded-vs-monolithic parity.

Eco-profile reports (``BENCH_legalize_eco.json``) add two **in-report**
gates that need no machine normalization because both numbers come from
the same host in the same process: every run's ``setup_ratio``
(incremental ``splitting + build_qp`` seconds over cold) must stay at or
under ``--eco-limit`` (default 0.25), and the unchanged re-run must be
bit-identical to the cold run.  The cross-report machine-normalized wall
comparison still applies, over the cold/incremental/perturbed phases.

Run:  python benchmarks/check_perf_regression.py NEW.json BENCH_legalize.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

CONFIG_KEYS = (
    "monolithic",
    "sharded",
    "cold",
    "incremental",
    "incremental_perturbed",
)


def _load(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def collect_ratios(new: Dict, base: Dict) -> List[Dict]:
    base_by_scale = {run["scale"]: run for run in base["runs"]}
    ratios: List[Dict] = []
    for run in new["runs"]:
        base_run = base_by_scale.get(run["scale"])
        if base_run is None:
            continue
        for key in CONFIG_KEYS:
            if key not in run or key not in base_run:
                continue
            base_wall = base_run[key]["wall_s"]
            if base_wall <= 0:
                continue
            ratios.append(
                {
                    "scale": run["scale"],
                    "config": key,
                    "new_wall_s": run[key]["wall_s"],
                    "base_wall_s": base_wall,
                    "ratio": run[key]["wall_s"] / base_wall,
                }
            )
    return ratios


def check(
    new: Dict, base: Dict, threshold: float, eco_limit: float = 0.25
) -> int:
    failures: List[str] = []
    if new.get("profile") != base.get("profile"):
        failures.append(
            f"profile mismatch: new={new.get('profile')!r} "
            f"baseline={base.get('profile')!r}"
        )
    # Backends time differently by design; a fused run against a
    # reference baseline (or vice versa) would mis-normalize the machine
    # factor and hide or invent regressions.  Only like-for-like
    # comparisons are meaningful.
    new_backend = new.get("kernel_backend", "reference")
    base_backend = base.get("kernel_backend", "reference")
    if new_backend != base_backend:
        failures.append(
            f"kernel backend mismatch: new report ran {new_backend!r} but "
            f"the baseline ran {base_backend!r}; regenerate the baseline "
            "with the same --backend (comparisons are like-for-like only)"
        )
    if new.get("diverged"):
        failures.append("new report is marked diverged")
    for run in new["runs"]:
        if "parity" in run and not run["parity"].get("ok", True):
            failures.append(f"scale {run['scale']}: parity check failed")
        if "setup_ratio" in run:
            print(
                f"  scale {run['scale']:<5} incremental setup ratio "
                f"{run['setup_ratio']:.3f} (limit {eco_limit:.2f})  "
                f"reuse bit-identical "
                f"{'yes' if run.get('reuse_bit_identical') else 'NO'}"
            )
            if run["setup_ratio"] > eco_limit:
                failures.append(
                    f"scale {run['scale']}: incremental setup ratio "
                    f"{run['setup_ratio']:.3f} exceeds the "
                    f"{eco_limit:.2f} reuse gate"
                )
            if not run.get("reuse_bit_identical", True):
                failures.append(
                    f"scale {run['scale']}: cached re-run is not "
                    "bit-identical to the cold run"
                )

    ratios = collect_ratios(new, base)
    if not ratios:
        failures.append("no comparable (scale, config) pairs between reports")
        machine = None
    else:
        machine = statistics.median(entry["ratio"] for entry in ratios)
        limit = machine * (1.0 + threshold)
        print(
            f"machine factor (median wall ratio new/baseline): "
            f"{machine:.3f}; per-config limit {limit:.3f}"
        )
        for entry in ratios:
            verdict = "ok"
            if entry["ratio"] > limit:
                verdict = "REGRESSION"
                failures.append(
                    f"scale {entry['scale']} config {entry['config']}: "
                    f"wall {entry['base_wall_s']:.3f}s -> "
                    f"{entry['new_wall_s']:.3f}s "
                    f"(ratio {entry['ratio']:.3f} > limit {limit:.3f})"
                )
            print(
                f"  scale {entry['scale']:<5} {entry['config']:<8} "
                f"{entry['base_wall_s']:.3f}s -> {entry['new_wall_s']:.3f}s  "
                f"ratio {entry['ratio']:.3f}  {verdict}"
            )

    if failures:
        print(f"\nFAIL: {len(failures)} issue(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no wall-clock regression beyond threshold, parity intact")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="freshly generated BENCH_legalize.json")
    parser.add_argument("baseline", help="committed baseline to compare against")
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="allowed relative wall-clock regression after machine-factor "
             "normalization (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--eco-limit", type=float, default=0.25,
        help="max allowed eco-profile setup_ratio (incremental over cold "
             "splitting+build_qp seconds; in-report, machine-independent; "
             "default 0.25)",
    )
    args = parser.parse_args(argv)
    return check(
        _load(args.new), _load(args.baseline), args.threshold,
        eco_limit=args.eco_limit,
    )


if __name__ == "__main__":
    sys.exit(main())
