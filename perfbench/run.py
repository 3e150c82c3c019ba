"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it is the separate traced run that measures
the per-layer metrics.  The metric names, units and bounds are read from
``BENCHMARK.json``.  The run prints one line per metric (value, unit,
sample count), every failed request with its reason, and, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A report with the input fingerprints and raw samples is
written under ``.perfbench/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-solve", "cold-tail", "eco-service")
#: Fresh-process set-ups per run, half before the measured window and
#: half after it; set-up time is their median.  Machine speed drifts over
#: seconds, and samples taken back to back all see the same drift.
SETUP_SAMPLES = 4

_PHASES = ("legalizer.prepare_s", "legalizer.build_systems_s",
           "legalizer.solve_s", "legalizer.finish_s")
#: What a workload's traced run must show for the workload to be doing
#: its job (printed, not a correctness check: a change may move it).
WHY = {
    "cold-solve": (
        "legalizer.solve_s is the largest phase",
        lambda m: m["legalizer.solve_s"] == max(m[p] for p in _PHASES),
    ),
    "cold-tail": (
        "legalizer.prepare_s + legalizer.finish_s exceeds legalizer.solve_s",
        lambda m: m["legalizer.prepare_s"] + m["legalizer.finish_s"] > m["legalizer.solve_s"],
    ),
    "eco-service": (
        "eco.warm_sweeps_p50 is under a tenth of eco.cold_sweeps_p50",
        lambda m: m["eco.warm_sweeps_p50"] < m["eco.cold_sweeps_p50"] / 10,
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report-dir", default=os.path.join(ROOT, ".perfbench", "runs"),
                        help="where the run report is written")
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_report(args, out, metrics, correct):
    os.makedirs(args.report_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": out["fingerprint"],
        "fingerprints": out["fingerprints"],
        "correct": correct,
        "attempted": out["attempted"],
        "failed": len(out["failures"]),
        "failures": out["failures"][:50],
        "metrics": metrics,
        "raw": out.get("raw", {}),
        "samples": out.get("samples", {}),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(os.path.join(args.report_dir, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    recorder = out.get("recorder")
    if recorder is not None:
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        recorder.write_jsonl(os.path.join(trace_dir, stem + ".jsonl"))


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.workload == "eco-service":
        from perfbench import eco

        out = eco.run(ROOT, child_env(), args.seed, args.seconds, args.trace, SETUP_SAMPLES)
    else:
        from perfbench import library

        out = library.run(ROOT, child_env(), args.workload, args.seed, args.seconds,
                          args.trace, SETUP_SAMPLES)

    failures = out["failures"]
    attempted = out["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {len(out['fingerprints'])}  fingerprint {out['fingerprint'][:16]}")
    print(f"{'metric':28s} {'value':>14s} {'unit':8s} samples")
    metrics = {}
    missing = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        measured = out["metrics"].get(name)
        if measured is None:
            missing.append(name)
            continue
        value, count = measured
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"{name:28s} {value:14.6g} {unit:8s} {'' if count is None else count}")
    for name, value in out.get("raw", {}).items():
        if value is not None:
            print(f"{'raw ' + name:28s} {value:14.6g}")
    if args.trace and not missing:
        text, holds = WHY[args.workload]
        values = {name: entry["value"] for name, entry in metrics.items()}
        print(f"why {args.workload}: {text}: "
              f"{'confirmed' if holds(values) else 'NOT confirmed'}")
    error_rate = len(failures) / attempted if attempted else 1.0
    print(f"{'error_rate':28s} {error_rate:14.6g} {'fraction':8s} {attempted}")
    for name in missing:
        print(f"metric {name} not measured in this run (too few samples)")
    for line in failures[:50]:
        print(f"FAILED {line}")
    if len(failures) > 50:
        print(f"... and {len(failures) - 50} more failures")
    correct = not failures and not missing and attempted > 0
    write_report(args, out, metrics, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(args.trace),
               "--report-dir", args.report_dir]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {workload} printed no result", file=sys.stderr)
            return 2
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
