"""The array-pass tail stages against their per-cell oracles.

Tetris pass 1, the audit's per-cell checks and row assignment decide in
numpy which cells need the exact scalar code.  These tests hold them to
the plain per-cell loops in ``tail_oracles`` bit for bit on small random
designs (planted overlaps, cells past either core edge, off-site and
off-row positions, rail mismatches, off-grid and overlapping obstacles,
fences, missing rows, 1-3-row cells, fractional pitches and huge
origins), and count the scalar calls so a per-cell loop cannot come back
unnoticed.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.legality.checker as checker
from repro import telemetry
from repro.benchgen import generate_benchmark
from repro.core import MMSIMLegalizer
from repro.core.row_assign import assign_rows
from repro.core.tetris_fix import tetris_allocate
from repro.legality import check_legality
from repro.netlist import CellMaster, Design, RailType
from repro.rows import CoreArea
from repro.rows.power import RailScheme
from repro.rows.sitemap import SiteMap
from tail_oracles import (
    assign_rows_oracle,
    check_legality_oracle,
    tetris_allocate_oracle,
)

PROPERTY = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _bits(value):
    """Exact identity of a coordinate (0.0 and -0.0 differ)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _state(design):
    return [
        (_bits(c.x), _bits(c.y), c.flipped, c.row_index) for c in design.cells
    ]


def _violations(report):
    return [
        (v.kind, v.cell_id, v.other_id, _bits(float(v.amount)), v.message)
        for v in report.violations
    ]


def _outcome(fn, design):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(design))
    except Exception as exc:  # noqa: BLE001  (the exception is the result)
        return ("raised", type(exc), str(exc))


@st.composite
def designs(draw, fences=True):
    """A small random design whose working positions are a mid-flow
    placement: rows set (or missing), positions on or off the grids."""
    sw = draw(st.sampled_from([1.0, 0.37, 2.5, 1e-3]))
    rh = draw(st.sampled_from([9.0, 1.2, 9e-3]))
    xl = draw(st.sampled_from([0.0, 3.7, -41.25, 1.0e8 + 17]))
    yl = draw(st.sampled_from([0.0, -12.5, 5.0e7 + 3]))
    num_rows = draw(st.integers(1, 6))
    num_sites = draw(st.integers(4, 36))
    core = CoreArea(
        xl=xl, yl=yl, num_rows=num_rows, row_height=rh, num_sites=num_sites,
        site_width=sw,
        rails=RailScheme(draw(st.sampled_from([RailType.VSS, RailType.VDD]))),
    )
    design = Design(name="prop", core=core)
    masters = []
    for k in range(draw(st.integers(1, 4))):
        height = draw(st.integers(1, 3))
        rail = draw(st.sampled_from([None, RailType.VSS, RailType.VDD]))
        if height % 2 == 0 and rail is None:
            rail = RailType.VDD
        masters.append(CellMaster(
            f"M{k}", width=draw(st.sampled_from([1, 2, 3, 4, 1.5, 2.25])) * sw,
            height_rows=height, bottom_rail=rail,
        ))

    def position(margin=3):
        site = draw(st.integers(-margin, num_sites + margin - 1))
        frac = draw(st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 0.73]))
        row = draw(st.integers(-1, num_rows))
        rfrac = draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, 0.4]))
        return xl + (site + frac) * sw, yl + (row + rfrac) * rh, row

    cells = []
    for i in range(draw(st.integers(1, 18))):
        x, y, row = position()
        gx, gy, _ = position(margin=2)
        cell = design.add_cell(f"c{i}", draw(st.sampled_from(masters)), gx, gy)
        cell.x, cell.y = x, y
        cell.row_index = draw(st.sampled_from([row, row, row, None]))
        cells.append(cell)
    # Planted overlaps: copies stacked on (or one site off) existing cells.
    for j in range(draw(st.integers(0, 4))):
        src = draw(st.sampled_from(cells))
        cell = design.add_cell(f"dup{j}", draw(st.sampled_from(masters)),
                               src.gp_x, src.gp_y)
        cell.x = src.x + draw(st.sampled_from([0.0, sw, -sw]))
        cell.y, cell.row_index = src.y, src.row_index
        cells.append(cell)
    # Fixed obstacles, off-grid and possibly overlapping each other.
    for j in range(draw(st.integers(0, 3))):
        x, y, _ = position(margin=1)
        ob = design.add_cell(
            f"ob{j}",
            CellMaster(f"OB{j}", width=draw(st.sampled_from([1.0, 2.6, 5.0])) * sw,
                       height_rows=draw(st.integers(1, 2)), bottom_rail=RailType.VSS),
            x, y, fixed=True,
        )
        ob.x, ob.y = x, y
    if fences and draw(st.booleans()):
        names = [c.name for c in cells]
        for g in range(draw(st.integers(1, 2))):
            lo = draw(st.integers(0, num_sites - 2))
            hi = draw(st.integers(lo + 1, num_sites))
            r0 = draw(st.integers(0, num_rows - 1))
            r1 = draw(st.integers(r0 + 1, num_rows))
            members = draw(
                st.lists(st.sampled_from(names), max_size=4, unique=True)
            ) if names else []
            names = [n for n in names if n not in members]
            design.add_fence(
                f"f{g}",
                [(xl + lo * sw, yl + r0 * rh, xl + hi * sw, yl + r1 * rh)],
                members,
            )
    return design


def _comparable(stats):
    """``TetrisFixStats`` minus the pass-1 counter the oracle cannot know,
    with its displacement total as exact bits."""
    return dataclasses.replace(
        stats, num_suspects=0, fix_displacement=_bits(float(stats.fix_displacement))
    )


def _tetris_result(design):
    return _comparable(tetris_allocate(design))


def _tetris_oracle_result(design):
    return _comparable(tetris_allocate_oracle(design))


class TestParity:
    @PROPERTY
    @given(designs())
    def test_tetris_matches_per_cell_scan(self, design):
        twin = copy.deepcopy(design)
        got = _outcome(_tetris_result, design)
        want = _outcome(_tetris_oracle_result, twin)
        assert got == want
        if got[0] == "ok":
            assert _state(design) == _state(twin)

    @PROPERTY
    @given(designs(), st.booleans())
    def test_audit_matches_per_cell_checks(self, design, check_sites):
        got = _outcome(lambda d: _violations(check_legality(d, check_sites)), design)
        want = _outcome(
            lambda d: _violations(check_legality_oracle(d, check_sites)), design
        )
        assert got == want

    @PROPERTY
    @given(designs())
    def test_row_assignment_matches_per_cell_rule(self, design):
        twin = copy.deepcopy(design)

        def summary(fn):
            def run(d):
                a = fn(d)
                return (
                    [(k, [c.id for c in v]) for k, v in a.rows.items()],
                    [(k, [c.id for c in v]) for k, v in a.occupied.items()],
                    _bits(float(a.y_displacement)),
                    a.num_flipped,
                )
            return run

        got = _outcome(summary(assign_rows), design)
        want = _outcome(summary(assign_rows_oracle), twin)
        assert got == want
        if got[0] == "ok":
            assert _state(design) == _state(twin)

    def test_missing_row_infeasible_names_first_cell_in_scan_order(self):
        core = CoreArea(num_rows=1, row_height=9.0, num_sites=40, site_width=1.0)
        design = Design(name="inf", core=core)
        tall = CellMaster("T2", width=2.0, height_rows=2, bottom_rail=RailType.VSS)
        for name, x in (("late", 30.0), ("early", 4.0)):
            cell = design.add_cell(name, tall, x, 0.0)
            cell.row_index = None
        twin = copy.deepcopy(design)
        got = _outcome(tetris_allocate, design)
        assert got[0] == "raised" and "'early'" in got[2]
        assert got == _outcome(tetris_allocate_oracle, twin)


# ----------------------------------------------------------------------
# Count-based guard: the per-cell paths run only where they must.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def legal_design():
    design = generate_benchmark("fft_2", scale=0.02, seed=0)
    result = MMSIMLegalizer().legalize(design)
    assert result.audit_clean and result.tetris.num_illegal == 0
    return design


def _count_calls(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _row_neighbours(design):
    """Pairs of single-row movable cells adjacent in one row, far apart
    from each other's rows so planted overlaps stay independent."""
    by_row = {}
    for cell in design.movable_cells:
        if cell.height_rows == 1:
            by_row.setdefault(cell.row_index, []).append(cell)
    pairs = []
    for row in sorted(by_row)[::4]:
        cells = sorted(by_row[row], key=lambda c: c.x)
        if len(cells) >= 2:
            pairs.append((cells[0], cells[1]))
    return pairs


def _footprint(design, cell):
    core = design.core
    lo = round((cell.x - core.xl) / core.site_width)
    n = max(1, math.ceil(cell.width / core.site_width - 1e-9))
    return range(cell.row_index, cell.row_index + cell.height_rows), lo, lo + n


def _overlap_partners(design, planted):
    """Every movable cell whose footprint intersects a planted cell's."""
    involved = set()
    for p in planted:
        prow, plo, phi = _footprint(design, p)
        for c in design.movable_cells:
            if c is p:
                continue
            crow, clo, chi = _footprint(design, c)
            if set(prow) & set(crow) and clo < phi and plo < chi:
                involved.update((p.id, c.id))
    return involved


class TestScalarPathGuard:
    def test_legal_placement_takes_no_scalar_path(self, legal_design, monkeypatch):
        design = copy.deepcopy(legal_design)
        log = []
        for name in ("footprint_free", "occupy_cell"):
            _count_calls(monkeypatch, SiteMap, name, log)
        for name in ("_check_core_containment", "_check_alignment", "_check_rails"):
            _count_calls(monkeypatch, checker, name, log)
        stats = tetris_allocate(design)
        report = check_legality(design)
        assert log == []
        assert stats.num_suspects == 0 and stats.num_illegal == 0
        assert report.is_legal and report.num_flagged == 0

    def test_spans_carry_scalar_path_counts(self):
        design = generate_benchmark("fft_2", scale=0.02, seed=0)
        with telemetry.session() as tel:
            result = MMSIMLegalizer().legalize(design)
        tetris = tel.tracer.find("tetris")[0].attributes
        audit = tel.tracer.find("audit")[0].attributes
        assert tetris["suspects"] == result.tetris.num_suspects
        assert audit == {"violations": 0, "flagged_cells": 0}
        assert result.legality.num_flagged == 0

    def test_unfenced_row_assignment_takes_no_scalar_rule(
        self, legal_design, monkeypatch
    ):
        design = copy.deepcopy(legal_design)
        design.reset_to_gp()
        log = []
        _count_calls(monkeypatch, CoreArea, "nearest_correct_row", log)
        assign_rows(design)
        assert log == []

    @pytest.mark.parametrize("k", [1, 3])
    def test_planted_overlaps_take_exactly_the_involved_cells(
        self, legal_design, monkeypatch, k
    ):
        design = copy.deepcopy(legal_design)
        planted = []
        for left, right in _row_neighbours(design)[:k]:
            right.x = left.x  # stacked: always an overlap
            planted.append(right)
        assert len(planted) == k
        involved = _overlap_partners(design, planted)
        expected = sorted(
            (design.cells[i].row_index, _footprint(design, design.cells[i])[1])
            for i in involved
        )
        log = []
        _count_calls(monkeypatch, SiteMap, "footprint_free", log)
        stats = tetris_allocate(design)
        assert stats.num_suspects == len(involved)
        assert sorted((args[1], args[2]) for _, args in log) == expected
        assert stats.num_illegal >= 1
        assert check_legality(design).is_legal

    @pytest.mark.parametrize("k", [1, 4])
    def test_planted_off_grid_cells_are_exactly_the_flagged_cells(
        self, legal_design, monkeypatch, k
    ):
        design = copy.deepcopy(legal_design)
        step = len(design.movable_cells) // (k + 1)
        planted = [design.movable_cells[step * (j + 1)] for j in range(k)]
        for cell in planted:
            cell.x += 0.5 * design.core.site_width
        log = []
        for name in ("_check_core_containment", "_check_alignment", "_check_rails"):
            _count_calls(monkeypatch, checker, name, log)
        report = check_legality(design)
        assert report.num_flagged == k
        assert sorted(args[0].id for name, args in log
                      if name == "_check_alignment") == sorted(c.id for c in planted)
        assert len(log) == 3 * k
        assert _violations(report) == _violations(check_legality_oracle(design))


class TestSumOrder:
    def test_y_displacement_accumulates_left_to_right(self):
        """One large term then many tiny ones: a left-to-right ``+=`` drops
        every tiny term, numpy's pairwise ``sum`` keeps some of them."""
        core = CoreArea(num_rows=4, row_height=4.0, num_sites=80, site_width=1.0)
        design = Design(name="sum", core=core)
        master = CellMaster("S1", width=1.0, height_rows=1)
        design.add_cell("big", master, 0.0, 1.9)
        for i in range(40):
            design.add_cell(f"tiny{i}", master, float(i + 2), 1e-16)
        twin = copy.deepcopy(design)
        got = assign_rows(design).y_displacement
        assert _bits(got) == _bits(assign_rows_oracle(twin).y_displacement)
        assert got == 1.9

    def test_fenced_group_without_free_site(self):
        """A fence whose rows all round away leaves its map with no free
        interval: every member is illegal, as in the per-cell scan."""
        core = CoreArea(yl=50000003.0, num_rows=2, row_height=1.2, num_sites=4)
        design = Design(name="nofree", core=core)
        master = CellMaster("M0", width=1.0, height_rows=1)
        for name in ("c0", "c1"):
            cell = design.add_cell(name, master, 0.0, core.yl)
            cell.row_index = 0
        design.add_fence("f0", [(0.0, core.yl + 1.2, 1.0, core.yl + 2.4)], ["c0"])
        twin = copy.deepcopy(design)
        assert _outcome(_tetris_result, design) == _outcome(
            _tetris_oracle_result, twin
        )
        assert _state(design) == _state(twin)
