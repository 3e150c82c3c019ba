"""End-to-end legalization perf trajectory: sharded vs one-shard solve.

Every profile but ``eco`` runs each size twice: once as one monolithic
shard (``LegalizerConfig(shard=False)``, report key ``monolithic``) and
once with the default sharded configuration (``sharded``); final cell
positions and displacement must agree within ``--parity-tol`` and every
run must come out legal.

* ``smoke`` / ``full`` — the :mod:`bench_scaling` suite (fft_2 at several
  scales).

* ``micro`` — the micro-shard-heavy regime (fft_2 with 15% row blockages,
  which shatters the KKT LCP into hundreds-to-thousands of tiny coupling
  components; the largest scale gives the default sharded config itself
  >100 shards).

* ``eco`` — the incremental setup-reuse story (same blockage-heavy
  designs): a cold run populates a
  :class:`~repro.core.setup_cache.ReuseCache`, an **unchanged** rebuild
  of the same design re-runs with the cache (positions must be
  bit-identical, and ``splitting + build_qp`` must collapse — the
  ``setup_ratio`` the CI gate bounds at 25%), then ``perturb_fraction``
  of the cells get their GP x nudged and the design re-runs once more
  with the cache plus the cold run's persisted ``SolverState`` (the real
  ECO resubmit: its matrices differ from the cached run's, so every
  shard rebuilds — ``cache_perturbed`` counts them as stale or missed).
  Reports land in ``BENCH_legalize_eco.json`` by default so the micro
  baseline is never clobbered.

Each config records wall time, iteration counts, the per-stage breakdown
from the legalizer's telemetry spans, and ``solver_s`` — the
splitting + mmsim stage seconds, i.e. the part of the flow the sharded /
one-shard paths actually change (row assignment, QP build, Tetris and
the legality audit are identical work in every config).

Results land in ``BENCH_legalize.json`` at the repo root (see
``docs/PERFORMANCE.md`` for the schema).  The script exits nonzero if
configurations diverge: final cell positions must agree within
``--parity-tol``, legality/displacement stats must be identical, and
every run must be legal, so a perf "win" can never silently trade away
correctness.

Run:  PYTHONPATH=src python benchmarks/bench_legalize_perf.py --profile micro
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.benchgen import generate_benchmark, make_benchmark
from repro.core.legalizer import LegalizerConfig, MMSIMLegalizer
from repro.core.setup_cache import ReuseCache
from repro.core.state import SolverState
from repro.legality import check_legality
from repro.scenario.specs import LEGALIZER_SPEC

BENCH = "fft_2"
SEED = 3
PROFILES = {
    # scale list must keep >= 3 sizes so the JSON always carries a
    # trajectory, not a point sample.
    "smoke": {"scales": [0.01, 0.02, 0.05], "reps": 1},
    "full": {"scales": [0.01, 0.02, 0.05, 0.1], "reps": 3},
    # Micro-shard-heavy regime: blockages fragment the constraint graph.
    "micro": {"scales": [0.2, 0.4, 0.8], "reps": 2, "blockage": 0.15},
    # Incremental setup reuse: cold run -> unchanged re-run with the
    # ReuseCache -> perturb a fraction of cells -> re-run again.
    "eco": {
        "scales": [0.2, 0.4],
        "reps": 2,
        "blockage": 0.15,
        "eco": True,
        "perturb": 0.05,
    },
    # Fence regions + fixed macros: group-partitioned constraint graph.
    # Same monolithic-vs-sharded comparison as smoke/full; legal here
    # includes zero FENCE violations.
    "fences": {
        "scales": [0.01, 0.02, 0.05],
        "reps": 1,
        "fences": 2,
        "macro_frac": 0.1,
    },
}


def _make_design(
    scale: float,
    blockage: Optional[float],
    fences: int = 0,
    macro_frac: float = 0.0,
):
    if blockage is not None:
        return generate_benchmark(
            BENCH, scale=scale, seed=SEED, blockage_fraction=blockage
        )
    return make_benchmark(
        BENCH, scale=scale, seed=SEED, with_nets=False,
        fences=fences, macro_fraction=macro_frac,
    )


def _run_config(
    cfg: LegalizerConfig,
    scale: float,
    reps: int,
    blockage: Optional[float] = None,
    fences: int = 0,
    macro_frac: float = 0.0,
) -> Dict:
    """Best-of-``reps`` legalization of a freshly generated design."""
    best: Optional[Dict] = None
    for _ in range(reps):
        design = _make_design(scale, blockage, fences, macro_frac)
        t0 = time.perf_counter()
        result = MMSIMLegalizer(cfg).legalize(design)
        wall = time.perf_counter() - t0
        stages = {k: round(v, 6) for k, v in result.stage_seconds.items()}
        record = {
            "wall_s": wall,
            "solver_s": round(
                result.stage_seconds.get("splitting", 0.0)
                + result.stage_seconds.get("mmsim", 0.0),
                6,
            ),
            "iterations": result.iterations,
            "converged": result.converged,
            "stages_s": stages,
            "num_cells": design.num_cells,
            "num_variables": result.num_variables,
            "num_constraints": result.num_constraints,
            "legal": check_legality(design).is_legal,
            "displacement_sites": result.displacement.total_manhattan_sites,
            "site_width": design.core.site_width,
            "positions": np.array(
                [(c.x, c.y) for c in design.movable_cells]
            ),
        }
        if best is None or wall < best["wall_s"]:
            best = record
    assert best is not None
    return best


def _eco_phase(design, result, wall: float) -> Dict:
    """One eco phase's record (cold / incremental / perturbed)."""
    stages = {k: round(v, 6) for k, v in result.stage_seconds.items()}
    return {
        "wall_s": wall,
        "setup_s": round(
            result.stage_seconds.get("splitting", 0.0)
            + result.stage_seconds.get("build_qp", 0.0),
            6,
        ),
        "solver_s": round(
            result.stage_seconds.get("splitting", 0.0)
            + result.stage_seconds.get("mmsim", 0.0),
            6,
        ),
        "iterations": result.iterations,
        "converged": result.converged,
        "stages_s": stages,
        "legal": check_legality(design).is_legal,
        "displacement_sites": result.displacement.total_manhattan_sites,
        "positions": np.array([(c.x, c.y) for c in design.movable_cells]),
    }


def _perturb_cells(design, fraction: float, seed: int) -> int:
    """Nudge ``fraction`` of the movable cells' GP x by up to ±2 sites."""
    rng = np.random.default_rng(seed)
    cells = design.movable_cells
    k = max(1, int(len(cells) * fraction))
    picked = rng.choice(len(cells), size=k, replace=False)
    for i in picked:
        cells[int(i)].gp_x += (
            float(rng.uniform(-2.0, 2.0)) * design.core.site_width
        )
    return k


def _run_eco_scale(
    cfg: LegalizerConfig,
    scale: float,
    reps: int,
    blockage: Optional[float],
    perturb: float,
) -> Dict:
    """Best-of-``reps`` cold → unchanged re-run → perturbed re-run trio.

    Each rep uses its own fresh :class:`ReuseCache` so every "cold" leg
    really is cold; the rep with the best (smallest) unchanged-re-run
    setup ratio is kept — same best-of-N convention as the other
    profiles, applied to the metric the gate bounds.
    """
    best: Optional[Dict] = None
    for _ in range(reps):
        reuse = ReuseCache()

        cold_design = _make_design(scale, blockage)
        t0 = time.perf_counter()
        cold_result = MMSIMLegalizer(cfg).legalize(cold_design, reuse=reuse)
        cold = _eco_phase(
            cold_design, cold_result, time.perf_counter() - t0
        )
        cold_stats = dict(reuse.stats)
        warm_state = SolverState.from_result(cold_design, cold_result)

        inc_design = _make_design(scale, blockage)
        t0 = time.perf_counter()
        inc_result = MMSIMLegalizer(cfg).legalize(inc_design, reuse=reuse)
        incremental = _eco_phase(
            inc_design, inc_result, time.perf_counter() - t0
        )
        inc_stats = {
            k: reuse.stats[k] - cold_stats[k] for k in reuse.stats
        }

        pert_design = _make_design(scale, blockage)
        perturbed_cells = _perturb_cells(pert_design, perturb, SEED)
        pre_stats = dict(reuse.stats)
        t0 = time.perf_counter()
        pert_result = MMSIMLegalizer(cfg).legalize(
            pert_design, warm_start_z=warm_state, reuse=reuse
        )
        perturbed = _eco_phase(
            pert_design, pert_result, time.perf_counter() - t0
        )
        pert_stats = {
            k: reuse.stats[k] - pre_stats[k] for k in reuse.stats
        }

        ratio = (
            incremental["setup_s"] / cold["setup_s"]
            if cold["setup_s"] > 0
            else 0.0
        )
        record = {
            "num_cells": cold_design.num_cells,
            "num_variables": cold_result.num_variables,
            "num_constraints": cold_result.num_constraints,
            "cold": cold,
            "incremental": incremental,
            "incremental_perturbed": perturbed,
            "setup_ratio": round(ratio, 4),
            "reuse_bit_identical": bool(
                np.array_equal(
                    incremental["positions"], cold["positions"]
                )
            ),
            "cache_incremental": inc_stats,
            "cache_perturbed": pert_stats,
            "perturbed_cells": perturbed_cells,
            "perturbed_warm_start": pert_result.warm_start,
        }
        if best is None or record["setup_ratio"] < best["setup_ratio"]:
            best = record
    assert best is not None
    return best


def _parity(a: Dict, b: Dict, parity_tol: float) -> Dict:
    pos_diff = float(np.max(np.abs(a["positions"] - b["positions"])))
    disp_diff = abs(a["displacement_sites"] - b["displacement_sites"])
    return {
        "ok": (
            pos_diff <= parity_tol
            and a["legal"] == b["legal"]
            and disp_diff <= parity_tol
        ),
        "tol": parity_tol,
        "max_position_diff": pos_diff,
        "displacement_diff": disp_diff,
    }


def _strip(record: Dict) -> Dict:
    return {
        k: v for k, v in record.items() if k not in ("positions", "num_cells")
    }


def run_profile(
    profile: str,
    parity_tol: float,
    backend: str = "reference",
) -> Dict:
    spec = PROFILES[profile]
    blockage = spec.get("blockage")
    runs: List[Dict] = []
    diverged = False
    if spec.get("eco"):
        cfg = LegalizerConfig()
        for scale in spec["scales"]:
            rec = _run_eco_scale(
                cfg, scale, spec["reps"], blockage, spec["perturb"]
            )
            diverged = diverged or not rec["reuse_bit_identical"]
            runs.append(
                {
                    "scale": scale,
                    "num_cells": rec["num_cells"],
                    "num_variables": rec["num_variables"],
                    "num_constraints": rec["num_constraints"],
                    "cold": _strip(rec["cold"]),
                    "incremental": _strip(rec["incremental"]),
                    "incremental_perturbed": _strip(
                        rec["incremental_perturbed"]
                    ),
                    "setup_ratio": rec["setup_ratio"],
                    "reuse_bit_identical": rec["reuse_bit_identical"],
                    "cache_incremental": rec["cache_incremental"],
                    "cache_perturbed": rec["cache_perturbed"],
                    "perturbed_cells": rec["perturbed_cells"],
                    "perturbed_warm_start": rec["perturbed_warm_start"],
                }
            )
            print(
                f"scale {scale:<5} cells {rec['num_cells']:>6}  "
                f"cold setup {rec['cold']['setup_s']:.4f}s  "
                f"incremental setup {rec['incremental']['setup_s']:.4f}s  "
                f"ratio {rec['setup_ratio']:.3f}  "
                f"bit-identical "
                f"{'yes' if rec['reuse_bit_identical'] else 'NO'}  "
                f"perturbed hit/miss/stale "
                f"{rec['cache_perturbed']['hit']}/"
                f"{rec['cache_perturbed']['miss']}/"
                f"{rec['cache_perturbed']['stale']}"
            )
    else:
        fences = spec.get("fences", 0)
        macro_frac = spec.get("macro_frac", 0.0)
        sharded_cfg = LegalizerConfig(kernel_backend=backend)
        monolithic_cfg = LegalizerConfig(shard=False, kernel_backend=backend)
        for scale in spec["scales"]:
            monolithic = _run_config(
                monolithic_cfg, scale, spec["reps"], blockage, fences,
                macro_frac,
            )
            sharded = _run_config(
                sharded_cfg, scale, spec["reps"], blockage, fences, macro_frac
            )
            parity = _parity(sharded, monolithic, parity_tol)
            # A design that ends illegal is a regression, not a perf
            # data point.
            diverged = (
                diverged
                or not parity["ok"]
                or not sharded["legal"]
                or not monolithic["legal"]
            )
            speedup = monolithic["wall_s"] / sharded["wall_s"]
            runs.append(
                {
                    "scale": scale,
                    "num_cells": sharded["num_cells"],
                    "num_variables": sharded["num_variables"],
                    "num_constraints": sharded["num_constraints"],
                    "monolithic": _strip(monolithic),
                    "sharded": _strip(sharded),
                    "speedup": round(speedup, 3),
                    "parity": parity,
                }
            )
            print(
                f"scale {scale:<5} cells {sharded['num_cells']:>5}  "
                f"monolithic {monolithic['wall_s']:.3f}s  "
                f"sharded {sharded['wall_s']:.3f}s  "
                f"speedup {speedup:.2f}x  "
                f"parity {'ok' if parity['ok'] else 'FAIL'}"
            )
    return {
        "benchmark": BENCH,
        "seed": SEED,
        "profile": profile,
        "kernel_backend": backend,
        "reps": spec["reps"],
        "blockage_fraction": blockage,
        "fences": spec.get("fences", 0),
        "macro_fraction": spec.get("macro_frac", 0.0),
        "perturb_fraction": spec.get("perturb"),
        "parity_tol": parity_tol,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runs": runs,
        "diverged": diverged,
    }


def main(argv: Optional[List[str]] = None) -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="micro")
    parser.add_argument(
        "--backend",
        choices=LEGALIZER_SPEC.var("kernel_backend").domain.choices,
        default="reference",
        help="kernel backend (convergence-check cadence) for both the "
             "sharded and the monolithic config (the eco profile always runs "
             "'reference'); the report records it so the regression "
             "gate only compares like-for-like backends",
    )
    parser.add_argument(
        "--parity-tol", type=float, default=1e-6,
        help="max allowed position / displacement difference between "
             "configurations before the run counts as diverged (default "
             "1e-6; in practice the paths agree bit-for-bit)",
    )
    parser.add_argument(
        "--output", default=None,
        help="report path (default BENCH_legalize.json at the repo root, "
             "or BENCH_legalize_eco.json for the eco profile)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        name = (
            "BENCH_legalize_eco.json"
            if args.profile == "eco"
            else "BENCH_legalize.json"
        )
        args.output = os.path.join(repo_root, name)

    report = run_profile(args.profile, args.parity_tol, backend=args.backend)
    with open(args.output, "w") as fh:
        # np.bool_/np.float64 leak into the record via numpy reductions.
        json.dump(
            report, fh, indent=2, sort_keys=True,
            default=lambda o: o.item() if isinstance(o, np.generic) else o,
        )
        fh.write("\n")
    print(f"wrote {args.output}")
    if report["diverged"]:
        print("ERROR: configurations diverged")
        return 1
    largest = report["runs"][-1]
    if "setup_ratio" in largest:
        worst = max(r["setup_ratio"] for r in report["runs"])
        print(
            f"worst incremental setup ratio: {worst:.3f} "
            f"(gate: <= 0.25); largest profile "
            f"{largest['cold']['setup_s']:.4f}s -> "
            f"{largest['incremental']['setup_s']:.4f}s setup"
        )
    else:
        print(
            f"largest profile: {largest['speedup']:.2f}x speedup "
            f"({largest['monolithic']['wall_s']:.3f}s -> "
            f"{largest['sharded']['wall_s']:.3f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
