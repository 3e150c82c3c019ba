"""NaN and inf inputs fail up front with an error naming what is wrong.

A non-finite number used to construct silently (``width <= 0`` is False
for NaN), run the whole solve, and die in Tetris or the row rule without
naming a cell.  Masters and cores now reject non-finite numbers, and one
array check of the cell coordinates runs before any stage: in
``MMSIMLegalizer.prepare``, when a design is decoded from JSON or read
from Bookshelf, and in ``assign_rows``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import cli
from repro.benchgen import generate_benchmark
from repro.core import MMSIMLegalizer
from repro.core.row_assign import assign_rows
from repro.io.jsonio import design_from_dict, design_to_dict
from repro.netlist import CellMaster, RailType
from repro.rows import CoreArea
from repro.service import LegalizeRequest, ProtocolError

from test_service import running_server

NON_FINITE = [math.nan, math.inf, -math.inf]


def small_design():
    return generate_benchmark("fft_2", scale=0.005, seed=3)


class TestConstructors:
    @pytest.mark.parametrize("width", NON_FINITE + [0.0, -1.0])
    def test_master_width(self, width):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            CellMaster("BAD", width=width, height_rows=1)

    @pytest.mark.parametrize("field", ["xl", "yl", "row_height", "site_width"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_core_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"core {field} must be finite"):
            CoreArea(num_rows=2, num_sites=4, **{field: value})

    def test_core_nan_and_inf_together(self):
        with pytest.raises(ValueError, match="row_height must be finite"):
            CoreArea(row_height=math.nan, site_width=math.inf)

    def test_finite_values_still_construct(self):
        CellMaster("OK", width=2.5, height_rows=2, bottom_rail=RailType.VSS)
        CoreArea(xl=-3.0, yl=1e8, num_rows=2, row_height=0.3, num_sites=4,
                 site_width=1e-3)


class TestLibrary:
    @pytest.mark.parametrize("field", ["gp_x", "gp_y"])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_legalize_names_cell_and_field(self, field, value):
        design = small_design()
        bad = design.movable_cells[5]
        setattr(bad, field, value)
        with pytest.raises(ValueError) as info:
            MMSIMLegalizer().legalize(design)
        assert f"cell {bad.name!r}: {field} is not finite" in str(info.value)

    def test_fixed_cell_position_checked(self):
        design = generate_benchmark("fft_2", scale=0.02, seed=1, macro_fraction=0.1)
        fixed = next(c for c in design.cells if c.fixed)
        fixed.x = math.nan
        with pytest.raises(ValueError, match=f"cell {fixed.name!r}: x is not finite"):
            MMSIMLegalizer().legalize(design)

    def test_assign_rows_names_cell(self):
        design = small_design()
        bad = design.movable_cells[0]
        bad.gp_x = math.nan
        with pytest.raises(ValueError, match=f"cell {bad.name!r}: gp_x"):
            assign_rows(design)

    def test_finite_design_passes(self):
        small_design().validate_coordinates()

    def test_design_from_dict(self):
        data = design_to_dict(small_design())
        data["cells"][2]["gp_y"] = math.inf
        with pytest.raises(ValueError, match="gp_y is not finite"):
            design_from_dict(data)


class TestService:
    def _payload(self):
        design = small_design()
        design.cells[4].gp_x = math.nan
        body = LegalizeRequest(design=design).to_dict()
        return body, design.cells[4].name

    def test_protocol_error(self):
        body, name = self._payload()
        with pytest.raises(ProtocolError, match=f"cell {name!r}: gp_x"):
            LegalizeRequest.from_dict(json.loads(json.dumps(body)))

    def test_http_400_before_queueing(self):
        body, name = self._payload()
        with running_server() as (_, client, __):
            status, payload, _ = client._http("POST", "/legalize", body)
            assert status == 400
            assert f"cell {name!r}: gp_x is not finite" in payload["error"]
            counters = client._http("GET", "/stats", None)[1]["counters"]
            assert counters.get("service.batches", 0) == 0


class TestCLI:
    def test_legalize_exits_2_with_message(self, tmp_path, capsys):
        design = small_design()
        data = design_to_dict(design)
        data["cells"][1]["gp_x"] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert cli.main(["legalize", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"cell {design.cells[1].name!r}: gp_x is not finite" in err
