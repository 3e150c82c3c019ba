"""Tier-1 tests for the differential fuzzing harness (repro.fuzz).

Covers the generator (determinism, buildability), the oracle (clean
campaign, infeasible handling), the shrinker + corpus pipeline, and —
most importantly — *revert detection*: each edge-case fix this harness
was built to catch is temporarily reverted via monkeypatching and the
harness must flag the planted bug.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tetris_fix as tetris_fix
import repro.io.bookshelf.writer as writer
import repro.legality.checker as checker
from repro import telemetry
from repro.core.state import SolverState
from repro.fuzz import (
    FuzzOptions,
    OracleOptions,
    case_seeds,
    generate_scenario,
    load_repro,
    run_fuzz,
    run_oracle,
    shrink_design,
    translate_design,
    write_repro,
)
from repro.fuzz.harness import _make_predicate
from repro.fuzz.invariants import INVARIANTS
from repro.geometry import Interval, IntervalSet
from repro.rows.sitemap import SiteMap


def _gp_arrays(design):
    return np.array([(c.gp_x, c.gp_y) for c in design.cells])


#: Every invariant but the exact-reference and metamorphic checks.
NO_META = OracleOptions(
    configs=[],
    invariants=set(INVARIANTS) - {"reference", "translation", "idempotence"},
)
#: ... and without the Bookshelf round trip either.
FAST = OracleOptions(configs=[], invariants=NO_META.invariants - {"roundtrip"})


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_scenario_deterministic(self):
        for seed in (0, 7, 21, 99):
            a, b = generate_scenario(seed), generate_scenario(seed)
            assert a == b
            da, db = a.build(), b.build()
            assert da.num_cells == db.num_cells
            assert np.array_equal(_gp_arrays(da), _gp_arrays(db))

    def test_scenarios_buildable(self):
        kinds = set()
        for seed in range(40):
            s = generate_scenario(seed)
            kinds.add(s.kind)
            d = s.build()
            assert d.num_cells > 0
            assert d.core.num_rows >= 1 and d.core.num_sites >= 1
            if not s.expect_infeasible:
                assert d.movable_cells
        # The weighted mix must actually produce variety.
        assert len(kinds) >= 4

    def test_case_seeds_deterministic(self):
        assert case_seeds(0, 10) == case_seeds(0, 10)
        assert case_seeds(0, 10) != case_seeds(1, 10)
        assert len(set(case_seeds(0, 100))) == 100

    def test_translate_design_preserves_structure(self):
        d = generate_scenario(2).build()
        t = translate_design(d, dx_sites=3, dy_rows=2)
        assert t.num_cells == d.num_cells
        assert t.core.xl == pytest.approx(d.core.xl + 3 * d.core.site_width)
        assert t.core.yl == pytest.approx(d.core.yl + 2 * d.core.row_height)


# ----------------------------------------------------------------------
# Oracle campaigns
# ----------------------------------------------------------------------
class TestOptions:
    def test_only_caller_set_fields_remain(self):
        assert [f.name for f in dataclasses.fields(OracleOptions)] == [
            "configs", "invariants",
        ]
        assert len(dataclasses.fields(FuzzOptions)) == 7
        for target, name in (
            (OracleOptions, "metamorphic"),
            (OracleOptions, "objective_rtol"),
            (FuzzOptions, "max_shrink_evals"),
            (FuzzOptions, "oracle"),
        ):
            with pytest.raises(TypeError, match=name):
                target(**{name: None})

    def test_invariants_gate_the_roundtrip_check(self, monkeypatch):
        monkeypatch.setattr(writer, "_num", lambda v: f"{float(v):.6f}")
        report = run_oracle(generate_scenario(2), FAST)
        assert "roundtrip" not in report.invariant_names()


class TestOracle:
    def test_small_campaign_clean(self):
        with telemetry.session() as tel:
            report = run_fuzz(FuzzOptions(cases=4, seed=0, shrink=False,
                                          corpus_dir=None))
            counters = dict(tel.metrics.snapshot())
        assert report.ok, report.summary()
        assert report.cases_run == 4
        assert counters["fuzz.cases"]["value"] == 4
        assert counters.get("fuzz.failures", {}).get("value", 0) == 0

    def test_infeasible_design_is_expected(self):
        seed = next(s for s in range(100)
                    if generate_scenario(s).expect_infeasible)
        report = run_oracle(generate_scenario(seed), FAST)
        assert report.infeasible
        assert report.ok, report.failures


# ----------------------------------------------------------------------
# Revert detection: each fixed bug, when reverted, must be caught.
# ----------------------------------------------------------------------
class TestRevertDetection:
    def test_writer_precision_revert_detected(self, monkeypatch):
        """Satellite 3: fixed-precision writer breaks round-trip fidelity."""
        monkeypatch.setattr(writer, "_num", lambda v: f"{float(v):.6f}")
        report = run_oracle(generate_scenario(2), NO_META)
        assert "roundtrip" in report.invariant_names()

    def test_stale_state_revert_detected(self, monkeypatch):
        """Satellite 2: accepting a cross-design warm start must be caught."""
        monkeypatch.setattr(SolverState, "matches",
                            lambda self, design, expected_dim=None: None)
        stale = run_oracle(generate_scenario(2), FAST).extras["solver_state"]
        report = run_oracle(generate_scenario(1), FAST, stale_state=stale)
        assert "stale_state" in report.invariant_names()

    def test_checker_tolerance_revert_detected(self, monkeypatch):
        """Satellite 4: a fixed grid epsilon false-positives at huge origins.

        Seed 2 of the extreme_origin kind has site_width=1e-3 at
        xl ~ 1e8, where float rounding of legal snapped positions exceeds
        GRID_TOL * site_width.  The kind is pinned so the scenario stays
        stable as the weighted mix evolves.
        """
        monkeypatch.setattr(checker, "site_tolerance",
                            lambda core: checker.GRID_TOL * core.site_width)
        monkeypatch.setattr(checker, "row_tolerance",
                            lambda core: checker.GRID_TOL * core.row_height)
        report = run_oracle(generate_scenario(2, kinds=["extreme_origin"]), FAST)
        assert "legality" in report.invariant_names()

    def test_tetris_blocking_revert_detected(self, monkeypatch):
        """Obstacle-blocking fix: fixed 1e-9 eps + exclusive occupy() crash
        on aligned fixed cells at extreme origins (pinned kind, seed 6)."""
        monkeypatch.setattr(tetris_fix, "site_tolerance",
                            lambda core: 1e-9 * core.site_width)
        monkeypatch.setattr(tetris_fix, "row_tolerance",
                            lambda core: 1e-9 * core.row_height)
        monkeypatch.setattr(SiteMap, "block", SiteMap.occupy)
        report = run_oracle(generate_scenario(6, kinds=["extreme_origin"]), FAST)
        assert "crash" in report.invariant_names()

    def test_structured_infeasibility_revert_detected(self, monkeypatch):
        """Satellite 1: an unstructured error on an infeasible design is a
        harness failure, not an expected outcome."""
        import repro.rows.core_area as core_area

        orig = core_area.CoreArea.nearest_correct_row

        def unstructured(self, master, y):
            try:
                return orig(self, master, y)
            except core_area.InfeasibleAssignment as exc:
                raise ValueError(str(exc)) from None

        monkeypatch.setattr(core_area.CoreArea, "nearest_correct_row",
                            unstructured)
        seed = next(s for s in range(100)
                    if generate_scenario(s).expect_infeasible)
        report = run_oracle(generate_scenario(seed), FAST)
        assert not report.ok
        assert "expected_infeasible" in report.invariant_names()


# ----------------------------------------------------------------------
# Shrinker + corpus
# ----------------------------------------------------------------------
class TestShrinkAndCorpus:
    def test_shrinks_planted_bug_to_small_repro(self, monkeypatch, tmp_path):
        monkeypatch.setattr(writer, "_num", lambda v: f"{float(v):.6f}")
        scenario = generate_scenario(2)
        report = run_oracle(scenario, NO_META)
        failure = next(f for f in report.failures
                       if f.invariant == "roundtrip")
        predicate = _make_predicate(failure, False, None)
        result = shrink_design(scenario.build(), predicate, max_evals=60)
        assert result.design.num_cells <= 10
        assert result.design.num_cells < result.original_cells
        path = write_repro(str(tmp_path), result.design,
                           {"invariant": "roundtrip", "seed": scenario.seed})
        loaded_design, meta = load_repro(path)
        assert meta["invariant"] == "roundtrip"
        assert loaded_design.num_cells == result.design.num_cells


# ----------------------------------------------------------------------
# Regression units for the fixes themselves
# ----------------------------------------------------------------------
class TestIntervalSubtract:
    def test_subtract_overlapping_blocks(self):
        s = IntervalSet([Interval(0.0, 10.0)])
        s.subtract(2.0, 6.0)
        s.subtract(4.0, 8.0)  # overlaps the previous block: must not raise
        assert [(iv.lo, iv.hi) for iv in s.intervals()] == [(0.0, 2.0),
                                                            (8.0, 10.0)]

    def test_subtract_outside_is_noop(self):
        s = IntervalSet([Interval(2.0, 4.0)])
        s.subtract(5.0, 9.0)
        assert [(iv.lo, iv.hi) for iv in s.intervals()] == [(2.0, 4.0)]

    def test_subtract_splits_interval(self):
        s = IntervalSet([Interval(0.0, 10.0)])
        s.subtract(3.0, 4.0)
        assert [(iv.lo, iv.hi) for iv in s.intervals()] == [(0.0, 3.0),
                                                            (4.0, 10.0)]

    def test_sitemap_block_union_semantics(self):
        d = generate_scenario(1).build()
        sm = SiteMap(d.core)
        sm.block(0, 0, 4)
        sm.block(0, 2, 4)  # overlapping fixed obstacles: legal input
        assert not sm.is_free(0, 0, 1)
        assert not sm.is_free(0, 5, 1)
        with pytest.raises(ValueError):
            sm.occupy(0, 2, 2)  # exclusive claim still rejects overlap


class TestWriterFidelity:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64,
                     min_value=-1e12, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_num_roundtrips_bitwise(self, value):
        assert float(writer._num(value)) == value

    def test_idempotence_at_fractional_site_width(self):
        """Fuzz-found (campaign 0, case 89): compaction/PlaceRow computed
        site-aligned x arithmetically, off by an ulp from the canonical
        xl + k*site_width at site_width=1e-3 — re-legalizing the output
        moved cells by 1e-15. tetris_allocate now canonicalizes."""
        from repro.core import MMSIMLegalizer

        d = generate_scenario(3591019649).build()
        MMSIMLegalizer().legalize(d)
        first = np.array([(c.x, c.y) for c in d.movable_cells])
        core = d.core
        for c in d.movable_cells:
            assert c.x == core.snap_x(c.x)
        for c in d.cells:
            c.gp_x, c.gp_y = c.x, c.y
            if not c.fixed:
                c.row_index = None
        MMSIMLegalizer().legalize(d)
        second = np.array([(c.x, c.y) for c in d.movable_cells])
        assert np.array_equal(first, second)

    def test_extreme_origin_roundtrip_clean(self):
        """Huge-origin scenario: write -> read -> legalize stays bitwise."""
        report = run_oracle(generate_scenario(0), NO_META)
        assert report.ok, report.failures
