"""Fence regions & fixed-macro obstacles: checker semantics, QP/Tetris
flow, IO round-trips, and the fence-on vs pre-sliced bit-identity claim.

Covers the constraint-family contract end to end:

* fixed-fixed overlaps are legal inputs (obstacles may overlap);
  movable-movable and movable-fixed overlaps still fail;
* below-/above-core cells never produce phantom row-0 / top-row
  overlaps (``math.floor`` row bucketing);
* exclusive fence semantics — member outside its fence, non-member
  intruding, fixed cells exempt;
* fenced benchmarks legalize with zero FENCE violations;
* a fence-on run is bitwise identical to legalizing each fence slice
  (and the unfenced remainder) separately;
* fences survive JSON/Bookshelf round-trips, invalidate the design
  fingerprint, and flow through the service protocol.
"""

import pytest

from repro.benchgen import make_benchmark
from repro.cli import main
from repro.core import LegalizerConfig, MMSIMLegalizer, legalize
from repro.core.state import design_fingerprint
from repro.io.bookshelf import read_design, write_design
from repro.io.jsonio import design_from_dict, design_to_dict, load_design, save_design
from repro.legality import check_legality
from repro.legality.violations import ViolationKind
from repro.netlist import CellMaster, Design, RailType
from repro.rows import CoreArea
from repro.service import ProtocolError
from repro.service.protocol import LegalizeRequest


S3 = CellMaster("S3", width=3.0, height_rows=1)
S4 = CellMaster("S4", width=4.0, height_rows=1)
F8 = CellMaster("F8", width=8.0, height_rows=1)


def _core(num_rows=4, num_sites=40):
    return CoreArea(num_rows=num_rows, row_height=9.0, num_sites=num_sites)


def _kinds(report):
    return {v.kind for v in report.violations}


# ----------------------------------------------------------------------
# Satellite 1: fixed-fixed overlap pairs are legal inputs.
# ----------------------------------------------------------------------
class TestFixedFixedOverlap:
    def _overlapping_fixed(self):
        design = Design(name="ff", core=_core())
        design.add_cell("f1", F8, 10.0, 0.0, fixed=True)
        design.add_cell("f2", F8, 14.0, 0.0, fixed=True)   # overlaps f1 by 4
        design.add_cell("a", S4, 0.0, 0.0)
        return design

    def test_checker_skips_fixed_fixed_pairs(self):
        design = self._overlapping_fixed()
        report = check_legality(design)
        assert report.is_legal, [v.message for v in report.violations]

    def test_movable_fixed_overlap_still_fails(self):
        design = self._overlapping_fixed()
        design.cell_by_name("a").x = 12.0   # into the obstacle union
        report = check_legality(design)
        assert ViolationKind.OVERLAP in _kinds(report)

    def test_movable_movable_overlap_still_fails(self):
        design = Design(name="mm", core=_core())
        design.add_cell("a", S4, 0.0, 0.0)
        design.add_cell("b", S4, 2.0, 0.0)
        report = check_legality(design)
        assert ViolationKind.OVERLAP in _kinds(report)

    def test_full_flow_with_overlapping_obstacles(self, tmp_path):
        design = self._overlapping_fixed()
        design.add_cell("b", S4, 11.0, 9.0)
        path = str(tmp_path / "ff.json")
        save_design(design, path)
        assert main(["legalize", path, "--fail-on-illegal"]) == 0

    def test_compaction_through_overlapping_offgrid_obstacles(self):
        """Fuzz regression (adversarial seed 279859028, minimized).

        Two overlapping, off-grid fixed obstacles straddle rows 1-2.  The
        compaction planner used to bail on ANY span touching them (the
        first barrier pushes the frontier past the second barrier's left
        edge, which read as "a movable passed a barrier"), so the two
        3-row-tall cells the QP pushed off the right edge could never be
        repaired and stayed overlapping the core boundary and the row-2
        obstacle.  The planner must also span obstacles geometrically
        (rows 1 AND 2, not just the nearest row) and snap movables *up*
        to the site grid past an off-grid barrier edge — rounding tucks
        them back into the obstacle.
        """
        from repro.fuzz.invariants import movable_violations
        from repro.rows import RailScheme

        core = CoreArea(
            xl=0.0, yl=27.0, num_rows=3, row_height=9.0,
            num_sites=45, site_width=2.0,
            rails=RailScheme(bottom_rail_of_row_0=RailType.VDD),
        )
        design = Design(name="overlap_offgrid", core=core)
        f4 = CellMaster("f4", width=4.0, height_rows=1)
        f12 = CellMaster("f12", width=12.0, height_rows=1)
        w14x2 = CellMaster("w14x2", width=14.0, height_rows=2,
                           bottom_rail=RailType.VDD)
        w14 = CellMaster("w14", width=14.0, height_rows=1)
        w22 = CellMaster("w22", width=22.0, height_rows=1)
        w8 = CellMaster("w8", width=8.0, height_rows=1)
        w10x3 = CellMaster("w10x3", width=10.0, height_rows=3)
        w16x3 = CellMaster("w16x3", width=16.0, height_rows=3)
        w20 = CellMaster("w20", width=20.0, height_rows=1)
        # Overlapping off-grid obstacles straddling rows 1-2.
        design.add_cell("c0", f4, 0.74, 37.89, fixed=True)
        design.add_cell("fxdup", f4, 2.74, 37.89, fixed=True)
        design.add_cell("c5", f12, 18.0, 27.0, fixed=True)
        design.add_cell("c9", f4, 80.0, 45.0, fixed=True)
        design.add_cell("c2", w14x2, 6.467201468370661, 28.422437765090958)
        design.add_cell("c3", w14, 19.50379634540016, 35.21208077466599)
        design.add_cell("c4", w22, 23.67864178984322, 35.49825816837999)
        design.add_cell("c6", w8, 5.457126612806877, 44.48750304284229)
        design.add_cell("c7", w10x3, 54.40055201307872, 27.575417870369915)
        design.add_cell("c8", w16x3, 57.36468678680144, 26.66398380462714)
        design.add_cell("c10", w20, 64.41599919605694, 27.16041012275553)
        result = legalize(design)
        report = check_legality(design)
        bad = movable_violations(report, design)
        assert result.tetris.num_unplaced == 0
        assert not bad, [v.message for v in bad]

    def test_placerow_refine_respects_offgrid_straddling_obstacle(self):
        """Same fuzz seed, second failure mode: PlaceRow refinement.

        The refinement pass bucketed a fixed obstacle only into its
        nearest row and used its raw right edge as the segment start, so
        a left-pulled cell in a straddled row was pinned at an off-grid
        position tucked into the obstacle.  Segment starts must snap up
        to the site grid and obstacles must barrier every row they touch.
        """
        from repro.baselines.refine import placerow_refine
        from repro.fuzz.invariants import movable_violations

        core = CoreArea(num_rows=2, row_height=9.0, num_sites=20,
                        site_width=2.0)
        design = Design(name="refine_offgrid", core=core)
        f4 = CellMaster("f4", width=4.0, height_rows=1)
        # Off-grid, off-row: straddles rows 0 and 1 (y in [4, 13)).
        design.add_cell("obs", f4, 2.74, 4.0, fixed=True)
        for name, row in (("a", 0), ("b", 1)):
            cell = design.add_cell(name, S4, 0.0, 0.0)
            cell.gp_y = cell.y = core.row_y(row)
            cell.row_index = row
            cell.x = 8.0   # first free site past the obstacle
        placerow_refine(design)
        report = check_legality(design)
        bad = movable_violations(report, design)
        assert not bad, [v.message for v in bad]
        for name in ("a", "b"):
            assert design.cell_by_name(name).x == 8.0


# ----------------------------------------------------------------------
# Satellite 2: floor (not int()) row bucketing in the overlap sweep.
# ----------------------------------------------------------------------
class TestOutOfCoreBucketing:
    def test_below_core_cell_no_phantom_row0_overlap(self):
        design = Design(name="below", core=_core())
        design.add_cell("low", S4, 0.0, -9.0)    # fully below the core
        design.add_cell("r0", S4, 0.0, 0.0)      # legal row-0 occupant
        report = check_legality(design)
        # int() truncation buckets y=-9 into row 0 and fabricates an
        # overlap with r0; floor keeps it in row -1.
        assert ViolationKind.OVERLAP not in _kinds(report)
        assert ViolationKind.OUT_OF_CORE in _kinds(report)

    def test_above_core_cell_no_phantom_top_row_overlap(self):
        core = _core(num_rows=4)
        design = Design(name="above", core=core)
        design.add_cell("high", S4, 0.0, core.yh)   # fully above the core
        design.add_cell("top", S4, 0.0, core.yh - 9.0)
        report = check_legality(design)
        assert ViolationKind.OVERLAP not in _kinds(report)
        assert ViolationKind.OUT_OF_CORE in _kinds(report)


# ----------------------------------------------------------------------
# Fence checker semantics (exclusive kind).
# ----------------------------------------------------------------------
def _fenced_design():
    design = Design(name="fence", core=_core())
    design.add_fence("f0", [(10.0, 0.0, 20.0, 36.0)], ["m"])
    design.add_cell("m", S4, 12.0, 0.0)
    design.add_cell("out", S4, 0.0, 9.0)
    return design


class TestFenceChecker:
    def test_member_inside_is_legal(self):
        report = check_legality(_fenced_design())
        assert report.is_legal, [v.message for v in report.violations]

    def test_member_outside_fence_violates(self):
        design = _fenced_design()
        design.cell_by_name("m").x = 0.0
        report = check_legality(design)
        assert ViolationKind.FENCE in _kinds(report)

    def test_member_straddling_boundary_violates(self):
        design = _fenced_design()
        design.cell_by_name("m").x = 18.0   # 18..22 crosses xh=20
        report = check_legality(design)
        assert ViolationKind.FENCE in _kinds(report)

    def test_nonmember_intrusion_violates(self):
        design = _fenced_design()
        design.cell_by_name("out").x = 14.0
        report = check_legality(design)
        assert ViolationKind.FENCE in _kinds(report)

    def test_fixed_cells_are_exempt(self):
        design = _fenced_design()
        design.add_cell("mac", F8, 16.0, 9.0, fixed=True)  # straddles edge
        report = check_legality(design)
        assert ViolationKind.FENCE not in _kinds(report)

    def test_validate_rejects_unknown_member(self):
        design = Design(name="bad", core=_core())
        design.add_fence("f0", [(0.0, 0.0, 9.0, 9.0)], ["ghost"])
        with pytest.raises(ValueError):
            design.validate_fences()

    def test_validate_rejects_fixed_member(self):
        design = Design(name="bad", core=_core())
        design.add_cell("mac", F8, 0.0, 0.0, fixed=True)
        design.add_fence("f0", [(0.0, 0.0, 9.0, 9.0)], ["mac"])
        with pytest.raises(ValueError):
            design.validate_fences()

    def test_validate_rejects_double_membership(self):
        design = Design(name="bad", core=_core())
        design.add_cell("a", S4, 0.0, 0.0)
        design.add_fence("f0", [(0.0, 0.0, 9.0, 9.0)], ["a"])
        design.add_fence("f1", [(20.0, 0.0, 29.0, 9.0)], ["a"])
        with pytest.raises(ValueError):
            design.validate_fences()


# ----------------------------------------------------------------------
# End-to-end legalization with fences and macros.
# ----------------------------------------------------------------------
class TestFenceLegalization:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fenced_benchmark_legalizes_clean(self, seed):
        design = make_benchmark(
            "des_perf_1", scale=0.001, seed=seed, with_nets=False,
            fences=2, macro_fraction=0.1,
        )
        legalize(design)
        report = check_legality(design)
        assert report.is_legal, [v.message for v in report.violations[:5]]

    def test_fence_compaction_regression(self):
        """Fuzz find: nearest-free fails inside a fragmented fence; the
        group-aware compaction fallback must still place the member
        inside the fence (previously it was left outside)."""
        core = CoreArea(num_rows=4, row_height=9.0, num_sites=24)
        design = Design(name="frag", core=core)
        rects = [(12.0, 0.0, 22.0, 18.0), (12.0, 18.0, 22.0, 36.0)]
        members = ["c10", "c11", "c13", "c14", "c15", "c16"]
        design.add_fence("fence0", rects, members)
        design.add_fence("fence1", [(31.0, 0.0, 45.0, 18.0)], [])
        W3 = CellMaster("W3", width=3.0, height_rows=1)
        W4 = CellMaster("W4", width=4.0, height_rows=1)
        W6 = CellMaster("W6", width=6.0, height_rows=1)
        design.add_cell("c10", W4, 12.010136390870787, 9.033491922585336)
        design.add_cell("c11", W3, 14.815479588564713, 17.903528722236448)
        design.add_cell("c13", W6, 15.886160439761582, 17.987401044204987)
        design.add_cell("c14", W4, 15.627991444901728, 26.906435040804183)
        design.add_cell("c15", W3, 18.8603992995558, 8.991055760257634)
        design.add_cell("c16", W3, 16.609818190841697, 0.0)
        legalize(design)
        report = check_legality(design)
        assert report.is_legal, [v.message for v in report.violations]

    def test_macro_as_obstacle_matches_equivalent_fixed_cell(self):
        """A generated fixed macro must behave exactly like a hand-placed
        fixed cell of the same footprint: bit-identical flow-around."""
        def build(as_macro):
            design = Design(name="obst", core=_core(num_rows=4))
            if as_macro:
                mac = CellMaster(
                    "MAC", width=8.0, height_rows=2, bottom_rail=RailType.VSS
                )
                design.add_cell("blk", mac, 16.0, 0.0, fixed=True)
            else:
                half = CellMaster("HALF", width=8.0, height_rows=1)
                design.add_cell("blk_a", half, 16.0, 0.0, fixed=True)
                design.add_cell("blk_b", half, 16.0, 9.0, fixed=True)
            design.add_cell("a", S4, 14.0, 0.0)
            design.add_cell("b", S4, 18.0, 9.0)
            design.add_cell("c", S4, 21.0, 0.0)
            return design

        d_macro, d_cells = build(True), build(False)
        legalize(d_macro)
        legalize(d_cells)
        for name in ("a", "b", "c"):
            cm, cc = d_macro.cell_by_name(name), d_cells.cell_by_name(name)
            assert (cm.x, cm.y, cm.flipped) == (cc.x, cc.y, cc.flipped)
        assert check_legality(d_macro).is_legal


# ----------------------------------------------------------------------
# Acceptance: fence-on run == manually pre-sliced per-fence runs.
# ----------------------------------------------------------------------
class TestFenceSliceIdentity:
    def _slices(self, design):
        """Per-fence slices (fixed + members) and the unfenced remainder,
        mirroring the fuzz oracle's fence_slices construction."""
        fenced = {m for f in design.fences for m in f.members}
        out = []
        for fence in design.fences:
            part = Design(name=f"{design.name}_{fence.name}", core=design.core)
            present = []
            for cell in design.cells:
                if cell.fixed or cell.name in fence.members:
                    new = part.add_cell(
                        cell.name, cell.master, cell.gp_x, cell.gp_y,
                        fixed=cell.fixed,
                    )
                    new.x, new.y = cell.x, cell.y
                    if not cell.fixed:
                        present.append(cell.name)
            part.add_fence(fence.name, fence.rects, present)
            out.append(part)
        rest = Design(name=f"{design.name}_rest", core=design.core)
        for cell in design.cells:
            if cell.fixed or cell.name not in fenced:
                new = rest.add_cell(
                    cell.name, cell.master, cell.gp_x, cell.gp_y,
                    fixed=cell.fixed,
                )
                new.x, new.y = cell.x, cell.y
        for fence in design.fences:
            rest.add_fence(fence.name, fence.rects, [])
        out.append(rest)
        return out

    def test_positions_bit_identical(self):
        full = make_benchmark(
            "matrix_mult_1", scale=0.0008, seed=11, with_nets=False,
            fences=1, macro_fraction=0.1,
        )
        slices = self._slices(full)
        legalize(full)
        assert check_legality(full).is_legal
        for part in slices:
            legalize(part)
            for cell in part.movable_cells:
                ref = full.cell_by_name(cell.name)
                assert (cell.x, cell.y, cell.flipped) == (
                    ref.x, ref.y, ref.flipped,
                ), cell.name


# ----------------------------------------------------------------------
# IO round-trips, fingerprint, service protocol.
# ----------------------------------------------------------------------
class TestFenceIO:
    def test_json_roundtrip(self, tmp_path):
        design = _fenced_design()
        path = str(tmp_path / "f.json")
        save_design(design, path)
        back = load_design(path)
        assert len(back.fences) == 1
        assert back.fences[0].rects == design.fences[0].rects
        assert back.fences[0].members == design.fences[0].members

    def test_json_omits_empty_fences_key(self):
        design = Design(name="plain", core=_core())
        design.add_cell("a", S4, 0.0, 0.0)
        assert "fences" not in design_to_dict(design)

    def test_bookshelf_roundtrip(self, tmp_path):
        design = _fenced_design()
        aux = write_design(design, str(tmp_path))
        back = read_design(aux)
        assert len(back.fences) == 1
        assert back.fences[0].rects == design.fences[0].rects
        assert back.fences[0].members == design.fences[0].members

    def test_fingerprint_tracks_fences(self):
        base = _fenced_design()
        no_fence = Design(name="fence", core=_core())
        no_fence.add_cell("m", S4, 12.0, 0.0)
        no_fence.add_cell("out", S4, 0.0, 9.0)
        assert design_fingerprint(base) != design_fingerprint(no_fence)
        moved = Design(name="fence", core=_core())
        moved.add_fence("f0", [(10.0, 0.0, 21.0, 36.0)], ["m"])  # xh moved
        moved.add_cell("m", S4, 12.0, 0.0)
        moved.add_cell("out", S4, 0.0, 9.0)
        assert design_fingerprint(base) != design_fingerprint(moved)

    def test_service_accepts_fence_payload(self):
        design = _fenced_design()
        body = LegalizeRequest(design=design, key="k").to_dict()
        req = LegalizeRequest.from_dict(body)
        assert len(req.design.fences) == 1
        assert req.design.fences[0].members == design.fences[0].members

    def test_service_rejects_bad_fence_payload(self):
        design = _fenced_design()
        body = LegalizeRequest(design=design).to_dict()
        body["design"]["fences"][0]["members"] = ["ghost"]
        with pytest.raises(ProtocolError):
            LegalizeRequest.from_dict(body)
