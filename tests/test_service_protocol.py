"""Wire-protocol codecs: round-trips, validation, position write-back."""

from __future__ import annotations

import json

import pytest

from repro.benchgen.generator import generate_benchmark
from repro.core.legalizer import LegalizerConfig
from repro.service.protocol import (
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
    from repro.io.jsonio import design_to_dict

    return design_to_dict(design)


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
        positions=[{"name": "c0", "x": 1.0, "y": 2.0, "flipped": False}],
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
    with pytest.raises(ProtocolError, match="unknown cell"):
        apply_positions(design, [{"name": "ghost", "x": 0.0, "y": 0.0}])
