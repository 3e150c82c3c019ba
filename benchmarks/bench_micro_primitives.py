"""Micro-benchmarks of the core primitives (proper pytest-benchmark loops).

Unlike the table/figure regenerators (single pedantic runs), these time the
hot inner operations with full statistics — the numbers to watch when
optimizing:

* one MMSIM sweep of the runner both solver drives run, with its
  stacked rhs operator built (one rhs matvec, the two block solves),
* a PlaceRow append (amortized cluster collapse),
* SiteMap nearest-fit queries,
* the legality checker's sweep.

Run:  pytest benchmarks/bench_micro_primitives.py --benchmark-only
"""

from __future__ import annotations

import numpy as np

from repro.baselines.placerow import RowPlacer
from repro.benchgen import make_benchmark
from repro.core.qp_builder import build_legalization_qp
from repro.core.row_assign import assign_rows
from repro.core.splitting import LegalizationSplitting
from repro.core.subcells import split_cells
from repro.kernels import ReferenceSweepRunner
from repro.legality import check_legality
from repro.rows import SiteMap

SEED = 3


def _qp_and_splitting(scale=0.05):
    design = make_benchmark("fft_2", scale=scale, seed=SEED, with_nets=False)
    model = split_cells(design, assign_rows(design))
    lq = build_legalization_qp(design, model)
    splitting = LegalizationSplitting(lq.qp.H, lq.qp.B, lq.E, lq.lam)
    return lq, splitting


def test_mmsim_single_sweep(benchmark):
    lq, splitting = _qp_and_splitting()
    lcp = lq.qp.kkt_lcp()
    gq = 2.0 * lcp.q
    runner = ReferenceSweepRunner(splitting)
    # Two sweeps: the first runs on four matvecs, the second builds K,
    # so every timed sweep is the steady-state one.
    s = runner.run(np.zeros(lcp.n), 2, gq)

    benchmark(lambda: runner.run(s, 1, gq))


def test_placerow_appends(benchmark):
    rng = np.random.default_rng(SEED)
    targets = rng.uniform(0, 5000, size=500).cumsum() / 50.0
    widths = rng.integers(2, 8, size=500).astype(float)

    def run():
        placer = RowPlacer(0.0, 1e9)
        for i, (t, w) in enumerate(zip(targets, widths)):
            placer.append(i, float(t), float(w))
        return placer.frontier()

    benchmark(run)


def test_sitemap_nearest_fit(benchmark):
    design = make_benchmark("fft_2", scale=0.05, seed=SEED, with_nets=False)
    core = design.core
    site_map = SiteMap(core)
    rng = np.random.default_rng(SEED)
    # Fragment the map a bit first.
    for _ in range(200):
        row = int(rng.integers(core.num_rows))
        site = int(rng.integers(core.num_sites - 6))
        if site_map.is_free(row, site, 4):
            site_map.occupy(row, site, 4)
    queries = [
        (int(rng.integers(core.num_rows)), float(rng.uniform(0, core.width)))
        for _ in range(200)
    ]

    def run():
        hits = 0
        for row, x in queries:
            hits += site_map.nearest_fit_in_row(row, x, 4.0) is not None
        return hits

    benchmark(run)


def test_legality_checker(benchmark):
    design = make_benchmark("fft_2", scale=0.05, seed=SEED, with_nets=False)
    from repro.core import legalize

    legalize(design)
    benchmark(lambda: check_legality(design).is_legal)
