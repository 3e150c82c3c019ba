"""Wire-protocol codecs: round-trips, validation, position write-back."""

from __future__ import annotations

import base64
import json
import math
import struct

import numpy as np
import pytest

from repro.benchgen.generator import generate_benchmark
from repro.core.legalizer import LegalizerConfig
from repro.io.jsonio import design_to_dict
from repro.netlist import CellMaster, Design, RailType
from repro.rows import CoreArea
from repro.service.protocol import (
    PROTOCOL_VERSION,
    LegalizeRequest,
    LegalizeResponse,
    ProtocolError,
    apply_positions,
    positions_payload,
)


@pytest.fixture(scope="module")
def design():
    return generate_benchmark("fft_2", scale=0.005, seed=3)


def test_request_round_trip(design):
    req = LegalizeRequest(
        design=design,
        key="top",
        config={"lam": 500.0, "min_shard_variables": 1},
        deadline_seconds=2.5,
        store_state=False,
        warm=False,
    )
    data = json.loads(json.dumps(req.to_dict()))
    back = LegalizeRequest.from_dict(data)
    assert back.key == "top"
    assert back.config == {"lam": 500.0, "min_shard_variables": 1}
    assert back.deadline_seconds == 2.5
    assert back.store_state is False and back.warm is False
    assert back.design.num_cells == design.num_cells
    assert [c.name for c in back.design.cells] == [c.name for c in design.cells]


def test_request_defaults_and_cache_key(design):
    req = LegalizeRequest.from_dict({"design": req_design_dict(design)})
    assert req.key is None
    assert req.cache_key == design.name
    assert req.store_state is True and req.warm is True
    assert isinstance(req.legalizer_config(), LegalizerConfig)


def req_design_dict(design):
    """*design* as a request's ``design`` payload."""
    return LegalizeRequest(design=design).to_dict()["design"]


def test_request_rejects_unknown_config_field(design):
    with pytest.raises(ProtocolError, match="unknown config"):
        LegalizeRequest.from_dict(
            {"design": req_design_dict(design), "config": {"nope": 1}}
        )


def test_request_rejects_wire_unexpressible_config(design):
    # The object-valued resilience hook is deliberately not wire-settable.
    with pytest.raises(ProtocolError, match="unknown config"):
        LegalizeRequest.from_dict(
            {"design": req_design_dict(design), "config": {"resilience": {}}}
        )


def test_request_rejects_bad_payloads(design):
    with pytest.raises(ProtocolError, match="missing 'design'"):
        LegalizeRequest.from_dict({})
    with pytest.raises(ProtocolError, match="protocol version"):
        LegalizeRequest.from_dict(
            {"design": req_design_dict(design), "protocol_version": 99}
        )
    with pytest.raises(ProtocolError, match="deadline"):
        LegalizeRequest.from_dict(
            {"design": req_design_dict(design), "deadline_seconds": -1}
        )
    with pytest.raises(ProtocolError, match="bad design"):
        LegalizeRequest.from_dict({"design": {"format_version": 1}})
    with pytest.raises(ProtocolError, match="'key'"):
        LegalizeRequest.from_dict(
            {"design": req_design_dict(design), "key": 42}
        )
    # Directives used to pass through float() or bool(): "soon" escaped
    # as a ValueError (HTTP 500), NaN queued a job that expired as
    # "deadline of nans", True became a 1 s deadline and "false" read as
    # True.
    for name, value in (
        ("deadline_seconds", "soon"),
        ("deadline_seconds", math.nan),
        ("deadline_seconds", math.inf),
        ("deadline_seconds", True),
        ("deadline_seconds", 0),
        ("deadline_seconds", 10**400),
        ("warm", "false"),
        ("warm", 0),
        ("warm", None),
        ("store_state", "no"),
        ("store_state", 1),
    ):
        with pytest.raises(ProtocolError, match=name):
            LegalizeRequest.from_dict(
                {"design": req_design_dict(design), name: value}
            )
    with pytest.raises(ProtocolError, match="'design' must be an object"):
        LegalizeRequest.from_dict({"design": "fft_2"})
    # A falsy config used to read as "no overrides".
    for config in (0, "", False, []):
        with pytest.raises(ProtocolError, match="'config' must be an object"):
            LegalizeRequest.from_dict(
                {"design": req_design_dict(design), "config": config}
            )


def test_request_accepts_good_directives(design):
    req = LegalizeRequest.from_dict(
        {"design": req_design_dict(design), "deadline_seconds": 3,
         "warm": False, "store_state": False}
    )
    assert req.deadline_seconds == 3.0
    assert req.warm is False and req.store_state is False
    req = LegalizeRequest.from_dict(
        {"design": req_design_dict(design), "deadline_seconds": None,
         "config": None}
    )
    assert req.deadline_seconds is None and req.config == {}


def test_response_round_trip():
    resp = LegalizeResponse(
        ok=True,
        key="k",
        design_name="d",
        cache="hit",
        warm_start="state",
        converged=True,
        iterations=3,
        num_cells=10,
        audit_clean=True,
        runtime_seconds=0.5,
        stage_seconds={"mmsim": 0.4},
        summary="d: ...",
        positions=[
            {"name": "c0", "x": 1.0, "y": 2.0, "flipped": False,
             "row_index": None},
            {"name": "c1", "x": 3.5, "y": 4.0, "flipped": True,
             "row_index": 2},
        ],
    )
    back = LegalizeResponse.from_dict(json.loads(json.dumps(resp.to_dict())))
    assert back == resp


def test_response_ignores_unknown_fields():
    base = LegalizeResponse(ok=True, key="k", design_name="d").to_dict()
    base["future_field"] = 123
    back = LegalizeResponse.from_dict(base)
    assert back.ok and back.key == "k"


def test_apply_positions_round_trip(design):
    for i, cell in enumerate(design.cells):
        cell.x = float(i)
        cell.y = float(2 * i)
    payload = json.loads(json.dumps(positions_payload(design)))
    fresh = generate_benchmark("fft_2", scale=0.005, seed=3)
    apply_positions(fresh, payload)
    for a, b in zip(design.cells, fresh.cells):
        assert (a.x, a.y, a.flipped) == (b.x, b.y, b.flipped)


def test_apply_positions_unknown_cell(design):
    payload = positions_payload(design)
    payload[3] = dict(payload[3], name="ghost")
    with pytest.raises(ProtocolError, match="'ghost'"):
        apply_positions(design, payload)


def test_apply_positions_rejects_partial_answer(design):
    fresh = generate_benchmark("fft_2", scale=0.005, seed=3)
    before = fresh.snapshot_positions()
    payload = [dict(p, x=p["x"] + 1.0) for p in positions_payload(fresh)]
    for partial in (payload[:3], payload + payload[:1]):
        with pytest.raises(ProtocolError, match="positions for a design of"):
            apply_positions(fresh, partial)
    assert fresh.snapshot_positions() == before  # nothing was written


def test_apply_positions_rejects_reordered_answer(design):
    fresh = generate_benchmark("fft_2", scale=0.005, seed=3)
    before = fresh.snapshot_positions()
    payload = positions_payload(fresh)
    payload[0], payload[1] = payload[1], payload[0]
    with pytest.raises(ProtocolError, match="position 0 is for cell"):
        apply_positions(fresh, payload)
    assert fresh.snapshot_positions() == before


# ---------------------------------------------------------------- columns
SUBNORMAL = 5e-324
#: Values whose shortest round-tripping repr has 17 significant digits.
SEVENTEEN = [0.1 + 0.2, 1 + 2**-52, 1e-7 / 3, 123456.78901234567]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def edge_design() -> Design:
    """Cells whose coordinates a decimal codec that prints fewer digits
    would change: -0.0, a subnormal, 17-digit values, a fixed cell off
    the site grid, and a flipped cell."""
    core = CoreArea(num_rows=4, num_sites=40, row_height=9.0, site_width=1.0)
    design = Design(name="edge", core=core)
    single = CellMaster("S", width=2.0, height_rows=1)
    double = CellMaster("D", width=3.0, height_rows=2,
                        bottom_rail=RailType.VSS)
    design.add_cell("neg_zero", single, -0.0, 0.0)
    design.add_cell("subnormal", single, SUBNORMAL, 9.0)
    for i, value in enumerate(SEVENTEEN):
        cell = design.add_cell(f"digits{i}", double, value, -value)
        cell.x, cell.y = -value, value
    macro = design.add_cell("macro", double, 17.123456789012345, 9.0,
                            fixed=True)
    macro.x, macro.y = 17.123456789012345, 9.000000000000002
    design.add_cell("flip", single, 30.0, 27.0).flipped = True
    return design


FIELDS = ("name", "master", "gp_x", "gp_y", "x", "y", "fixed", "flipped")


def cell_bits(design):
    return [
        tuple(
            bits(v) if isinstance(v, float) else v
            for v in (c.name, c.master.name, c.gp_x, c.gp_y, c.x, c.y,
                      c.fixed, c.flipped)
        )
        for c in design.cells
    ]


def test_request_columns_round_trip_bit_for_bit():
    design = edge_design()
    body = json.loads(json.dumps(LegalizeRequest(design=design).to_dict()))
    assert body["protocol_version"] == PROTOCOL_VERSION == 2
    assert sorted(body["design"]["cells"]) == sorted(FIELDS)
    back = LegalizeRequest.from_dict(body).design
    assert cell_bits(back) == cell_bits(design)
    assert bits(back.cells[0].gp_x) == bits(-0.0) != bits(0.0)
    assert back.cells[1].gp_x == SUBNORMAL
    assert all(type(c.fixed) is bool and type(c.flipped) is bool
               for c in back.cells)


def test_request_columns_keep_the_design_file_layout():
    """Core, masters, nets and fences are the design-file layout; only
    the cells differ."""
    design = generate_benchmark("fft_2", scale=0.005, seed=3, fences=1)
    sent = LegalizeRequest(design=design).to_dict()["design"]
    on_disk = design_to_dict(design)
    assert sent.keys() == on_disk.keys()
    assert {k: v for k, v in sent.items() if k != "cells"} == {
        k: v for k, v in on_disk.items() if k != "cells"
    }
    back = LegalizeRequest.from_dict(json.loads(json.dumps(
        {"design": sent}))).design
    assert design_to_dict(back) == on_disk


def test_request_column_layout():
    design = edge_design()
    cells = LegalizeRequest(design=design).to_dict()["design"]["cells"]
    assert cells["name"] == [c.name for c in design.cells]
    assert cells["master"] == [c.master.name for c in design.cells]
    gp_x = np.frombuffer(base64.b64decode(cells["gp_x"]), "<f8")
    assert gp_x.tolist() == [c.gp_x for c in design.cells]
    fixed = np.frombuffer(base64.b64decode(cells["fixed"]), "u1")
    assert fixed.tolist() == [int(c.fixed) for c in design.cells]


def positions_of(design):
    positions = positions_payload(design)
    positions[0]["row_index"] = None
    for i, p in enumerate(positions[1:], start=1):
        p["row_index"] = i
    return positions


def test_response_positions_round_trip_bit_for_bit():
    design = edge_design()
    positions = positions_of(design)
    resp = LegalizeResponse(ok=True, key="k", design_name="edge",
                            positions=positions)
    wire = json.loads(json.dumps(resp.to_dict()))
    assert sorted(wire["positions"]) == [
        "flipped", "name", "row_index", "x", "y"
    ]
    rows = np.frombuffer(base64.b64decode(wire["positions"]["row_index"]),
                         "<i8")
    assert rows[0] == -1  # None crosses as -1
    back = LegalizeResponse.from_dict(wire).positions
    assert back == positions
    assert [(bits(p["x"]), bits(p["y"])) for p in back] == [
        (bits(c.x), bits(c.y)) for c in design.cells
    ]
    assert back[-1]["flipped"] is True and back[0]["row_index"] is None


def test_failure_response_round_trip():
    resp = LegalizeResponse.failure(None, "RuntimeError: boom")
    wire = json.loads(json.dumps(resp.to_dict()))
    assert wire["positions"]["name"] == [] and wire["positions"]["x"] == ""
    assert LegalizeResponse.from_dict(wire) == resp


def request_body(design):
    return json.loads(json.dumps(LegalizeRequest(design=design).to_dict()))


def set_column(body, column, value):
    body["design"]["cells"][column] = value
    return body


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


def bad_request_columns(design):
    """Broken ``design.cells`` columns by case: (column, value, what the
    error must say besides the column)."""
    n = design.num_cells
    good = request_body(design)["design"]["cells"]
    x = base64.b64decode(good["x"])
    return {
        "unequal lengths": ("master", good["master"][:-1], f"for {n} names"),
        "invalid base64": ("gp_y", "@@not base64@@", "not valid base64"),
        "non-ascii base64": ("gp_y", "é", "not valid base64"),
        "one cell short": ("x", b64(x[:-8]), f"{n} names need {8 * n}"),
        "not whole floats": ("y", b64(x + b"\x00"), f"{8 * n + 1} bytes"),
        "bool byte 2": (
            "fixed", b64(bytes([0] * (n - 1) + [2])), "other than 0 or 1"
        ),
        "bool byte 255": ("flipped", b64(bytes([255] * n)), "other than 0 or 1"),
        "unknown master": (
            "master", good["master"][:-1] + ["NOPE"], "unknown master 'NOPE'"
        ),
        "names not a list": ("name", "abc", "list of strings"),
        "non-string name": ("name", good["name"][:-1] + [7], "list of strings"),
        "floats as a list": ("x", [0.0] * n, "base64 string"),
    }


@pytest.mark.parametrize("case", sorted(bad_request_columns(edge_design())))
def test_request_column_errors_name_the_column(case):
    design = edge_design()
    column, value, problem = bad_request_columns(design)[case]
    body = set_column(request_body(design), column, value)
    with pytest.raises(ProtocolError) as exc:
        LegalizeRequest.from_dict(body)
    message = str(exc.value)
    assert f"design.cells: column {column!r}" in message
    assert problem in message


def test_request_missing_column_is_named():
    body = request_body(edge_design())
    del body["design"]["cells"]["flipped"]
    with pytest.raises(ProtocolError, match="column 'flipped' is missing"):
        LegalizeRequest.from_dict(body)


def test_request_v1_cell_list_is_rejected(design):
    body = request_body(design)
    body["design"] = design_to_dict(design)  # one object per cell
    with pytest.raises(ProtocolError, match="object of columns, got list"):
        LegalizeRequest.from_dict(body)
    body["protocol_version"] = 1
    with pytest.raises(ProtocolError, match="unsupported protocol version 1"):
        LegalizeRequest.from_dict(body)


def test_response_column_errors_name_the_column():
    positions = positions_of(edge_design())
    wire = LegalizeResponse(ok=True, key="k", design_name="edge",
                            positions=positions).to_dict()
    n = len(positions)
    for column, value, named, problem in (
        ("x", b64(bytes(8 * (n + 1))), "x", "bytes"),
        ("flipped", b64(bytes([3] * n)), "flipped", "other than 0 or 1"),
        ("row_index", b64(np.full(n, -2, "<i8").tobytes()), "row_index",
         "below -1"),
        # One name short: the first numeric column no longer fits.
        ("name", wire["positions"]["name"][1:], "x", f"{n - 1} names"),
        ("y", "***", "y", "not valid base64"),
    ):
        bad = dict(wire, positions=dict(wire["positions"], **{column: value}))
        with pytest.raises(ProtocolError) as exc:
            LegalizeResponse.from_dict(bad)
        assert f"positions: column {named!r}" in str(exc.value)
        assert problem in str(exc.value)


def test_response_rejects_v1_positions_list():
    wire = LegalizeResponse(ok=True, key="k", design_name="d").to_dict()
    wire["positions"] = [{"name": "c0", "x": 1.0, "y": 2.0}]
    with pytest.raises(ProtocolError, match="positions"):
        LegalizeResponse.from_dict(wire)
