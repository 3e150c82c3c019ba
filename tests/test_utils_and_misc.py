"""Tests for smaller behaviours not covered elsewhere: Bookshelf header
handling, SiteMap row pruning, LCP result strings, and the Design
convenience API."""

import pytest

from repro.io.bookshelf.format import drop_header, strip_comments, tokenize
from repro.lcp import LCP, psor_solve
from repro.netlist import CellMaster, Design
from repro.rows import CoreArea, SiteMap


class TestBookshelfFormat:
    def test_strip_comments(self):
        lines = ["# full comment\n", "data 1 # trailing\n", "\n", "  \n", "x\n"]
        assert list(strip_comments(iter(lines))) == ["data 1", "x"]

    def test_tokenize_colon(self):
        assert tokenize("NumRows : 5") == ["NumRows", ":", "5"]

    def test_drop_header_matching(self):
        assert drop_header(["UCLA nodes 1.0", "data"], "nodes") == ["data"]

    def test_drop_header_absent(self):
        assert drop_header(["data"], "nodes") == ["data"]

    def test_drop_header_wrong_kind(self):
        with pytest.raises(ValueError):
            drop_header(["UCLA pl 1.0"], "nodes")


class TestSiteMapQueries:
    def test_nearest_fit_prunes_by_row_distance(self):
        core = CoreArea(num_rows=10, row_height=9.0, num_sites=20)
        sm = SiteMap(core)
        # All rows free: the nearest row must win.
        best = sm.nearest_fit(5.0, 37.0, 4.0, 1, candidate_rows=range(10))
        assert best is not None
        row, site, cost = best
        assert row == 4
        assert site == 5
        assert cost == pytest.approx(1.0)

    def test_nearest_fit_no_candidates(self):
        core = CoreArea(num_rows=2, row_height=9.0, num_sites=10)
        sm = SiteMap(core)
        assert sm.nearest_fit(0, 0, 4.0, 1, candidate_rows=[]) is None


class TestResultStrings:
    def test_lcp_result_str(self):
        import numpy as np
        import scipy.sparse as sp

        lcp = LCP(A=sp.identity(2, format="csr"), q=np.array([-1.0, 2.0]))
        res = psor_solve(lcp)
        text = str(res)
        assert "psor" in text and "converged" in text

    def test_legalization_result_str(self, small_mixed_design):
        from repro.core import legalize

        res = legalize(small_mixed_design)
        assert "small_mixed" in res.summary()


class TestDesignEdgeCases:
    def test_movable_excludes_fixed(self, empty_design, single_master):
        empty_design.add_cell("m", single_master, 0, 0)
        empty_design.add_cell("f", single_master, 10, 0, fixed=True)
        assert len(empty_design.movable_cells) == 1
        assert empty_design.num_cells == 2

    def test_empty_design_metrics(self, empty_design):
        assert empty_design.density() == 0.0
        assert empty_design.total_displacement() == 0.0
        assert empty_design.total_hpwl() == 0.0
        assert empty_design.count_by_height() == {}
