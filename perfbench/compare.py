"""Compare two sets of benchmark run reports (parent vs change, or A/A).

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the ``*.json`` reports ``perfbench/run.py`` writes
(``--report-dir``).  Per workload and end-to-end metric it prints each
set's median and quartiles over its runs, each set's spread
(interquartile range over median), how much worse the new median is than
the base median, the metric's bound from ``BENCHMARK.json`` and a
verdict (see ``perfbench.stats.verdict``).  With one directory it prints
that set's medians and spreads and checks them against the bounds.

Two sets are compared only when they measured the same inputs: for every
workload both must hold the same seeds with the same input fingerprints.
Otherwise the comparison is refused (exit 2).  Exit 1 when a metric is
worse than its bound, when a set's spread exceeds a bound (``setup_s``
excepted), or when a run was not correct; else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reports(directory: str, trace: int) -> Dict[str, List[dict]]:
    """Reports of one set, by workload, sorted by seed."""
    by_workload: Dict[str, List[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            report = json.load(fh)
        if report.get("trace") == trace:
            by_workload.setdefault(report["workload"], []).append(report)
    for reports in by_workload.values():
        reports.sort(key=lambda r: r["seed"])
    return by_workload


def input_mismatch(base: List[dict], new: List[dict]) -> str:
    """Why two sets of one workload did not measure the same inputs, or ''."""
    a = {r["seed"]: r["fingerprint"] for r in base}
    b = {r["seed"]: r["fingerprint"] for r in new}
    if set(a) != set(b):
        return f"seeds differ: {sorted(a)} vs {sorted(b)}"
    changed = [seed for seed in a if a[seed] != b[seed]]
    if changed:
        return f"input fingerprints differ for seeds {sorted(changed)}"
    return ""


def values(reports: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]


def fmt_q(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)

    base = load_reports(args.base, trace=0)
    new = load_reports(args.new, trace=0) if args.new else None
    if not base:
        print(f"error: no run reports in {args.base}", file=sys.stderr)
        return 2
    status = 0
    for workload in sorted(base):
        a = base[workload]
        b = new.get(workload) if new is not None else None
        if new is not None:
            if not b:
                print(f"error: {workload}: no reports in {args.new}", file=sys.stderr)
                return 2
            reason = input_mismatch(a, b)
            if reason:
                print(f"error: {workload}: refusing to compare, {reason}", file=sys.stderr)
                return 2
        runs = a + (b or [])
        bad = [r for r in runs if not r["correct"]]
        print(f"== {workload}: {len(a)} base runs" + (f", {len(b)} new runs" if b else ""))
        if bad:
            status = 1
            print(f"   {len(bad)} run(s) not correct: seeds {[r['seed'] for r in bad]}")
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            va = values(a, name)
            if len(va) < 2:
                print(f"   {name}: fewer than two values")
                status = 1
                continue
            checks_spread = name != "setup_s"
            if b is None:
                s = stats.spread(va)
                flag = "ok" if s <= bound or not checks_spread else "spread>bound"
                if flag != "ok":
                    status = 1
                print(f"   {name:20s} {fmt_q(stats.quartiles(va)):40s} "
                      f"spread {s:7.2%}  bound {bound:.0%}  {flag}")
                continue
            vb = values(b, name)
            v = stats.verdict(va, vb, better, bound)
            spread_ok = not checks_spread or max(v["base_spread"], v["new_spread"]) <= bound
            if v["verdict"] == "worse" or not spread_ok:
                status = 1
            print(f"   {name:20s} base {fmt_q(v['base_quartiles'])}  "
                  f"new {fmt_q(v['new_quartiles'])}  "
                  f"spread {v['base_spread']:.2%}/{v['new_spread']:.2%}  "
                  f"worse by {v['worse_by']:+.2%} (bound {bound:.0%})  {v['verdict']}"
                  + ("" if spread_ok else "  spread>bound"))
    return status


if __name__ == "__main__":
    sys.exit(main())
