"""Native JSON serialization of a :class:`~repro.netlist.Design`.

The JSON form is lossless (masters, GP and current positions, rails, nets
with pin offsets, core geometry) and convenient for test fixtures and for
shipping benchmark instances alongside results.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict

from repro.netlist.cell import CellMaster, RailType
from repro.netlist.design import Design
from repro.netlist.net import Pin
from repro.rows.core_area import CoreArea
from repro.rows.power import RailScheme

FORMAT_VERSION = 1


def design_to_dict(design: Design) -> Dict[str, Any]:
    """Serialize a design to plain dictionaries."""
    return design_envelope(
        design,
        [
            {
                "name": c.name,
                "master": c.master.name,
                "gp_x": c.gp_x,
                "gp_y": c.gp_y,
                "x": c.x,
                "y": c.y,
                "fixed": c.fixed,
                "flipped": c.flipped,
            }
            for c in design.cells
        ],
    )


def design_envelope(design: Design, cells: Any) -> Dict[str, Any]:
    """Everything of the design-file layout but the cells, which are
    passed in as *cells* (one dict per cell in a design file; the service
    protocol sends columns instead)."""
    core = design.core
    return {
        "format_version": FORMAT_VERSION,
        "name": design.name,
        "core": {
            "xl": core.xl,
            "yl": core.yl,
            "num_rows": core.num_rows,
            "row_height": core.row_height,
            "num_sites": core.num_sites,
            "site_width": core.site_width,
            "row0_bottom_rail": core.rails.bottom_rail_of_row_0.value,
        },
        "masters": [
            {
                "name": m.name,
                "width": m.width,
                "height_rows": m.height_rows,
                "bottom_rail": m.bottom_rail.value if m.bottom_rail else None,
            }
            for m in design.masters.values()
        ],
        "cells": cells,
        "nets": [
            {
                "name": net.name,
                "pins": [
                    {
                        "cell": pin.cell.name if pin.cell else None,
                        "dx": pin.offset_x,
                        "dy": pin.offset_y,
                    }
                    for pin in net.pins
                ],
            }
            for net in design.nets
        ],
        # Optional: omitted entirely when empty so fence-free payloads are
        # byte-identical to pre-fence writers (format_version stays 1).
        **(
            {
                "fences": [
                    {
                        "name": f.name,
                        "rects": [list(rect) for rect in f.rects],
                        "members": sorted(f.members),
                    }
                    for f in design.fences
                ]
            }
            if design.fences
            else {}
        ),
    }


def design_from_dict(data: Dict[str, Any]) -> Design:
    """Deserialize a design from :func:`design_to_dict` output."""

    def add_cells(design: Design, masters: Dict[str, CellMaster]) -> None:
        for cdata in data["cells"]:
            cell = design.add_cell(
                cdata["name"],
                masters[cdata["master"]],
                cdata["gp_x"],
                cdata["gp_y"],
                fixed=cdata["fixed"],
            )
            cell.x = cdata["x"]
            cell.y = cdata["y"]
            cell.flipped = cdata["flipped"]

    return design_from_envelope(data, add_cells)


def design_from_envelope(
    data: Dict[str, Any],
    add_cells: Callable[[Design, Dict[str, CellMaster]], None],
) -> Design:
    """Deserialize a :func:`design_envelope` dict.  ``add_cells(design,
    masters)`` adds the cells from ``data["cells"]`` (masters by name)
    between the masters and the nets, which name cells; the fence and
    coordinate checks then run on the finished design."""
    version = data.get("format_version", 0)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported design JSON version {version}")
    cd = data["core"]
    core = CoreArea(
        xl=cd["xl"],
        yl=cd["yl"],
        num_rows=cd["num_rows"],
        row_height=cd["row_height"],
        num_sites=cd["num_sites"],
        site_width=cd["site_width"],
        rails=RailScheme(bottom_rail_of_row_0=RailType(cd["row0_bottom_rail"])),
    )
    design = Design(name=data["name"], core=core)
    masters = {}
    for md in data["masters"]:
        rail = RailType(md["bottom_rail"]) if md["bottom_rail"] else None
        masters[md["name"]] = CellMaster(
            name=md["name"],
            width=md["width"],
            height_rows=md["height_rows"],
            bottom_rail=rail,
        )
    add_cells(design, masters)
    by_name = {c.name: c for c in design.cells}
    for ndata in data["nets"]:
        pins = [
            Pin(
                cell=by_name[p["cell"]] if p["cell"] else None,
                offset_x=p["dx"],
                offset_y=p["dy"],
            )
            for p in ndata["pins"]
        ]
        design.add_net(ndata["name"], pins)
    for fdata in data.get("fences", []):
        design.add_fence(
            fdata["name"],
            [tuple(rect) for rect in fdata["rects"]],
            fdata["members"],
        )
    design.validate_fences()
    design.validate_coordinates()
    return design


def save_design(design: Design, path: str) -> None:
    """Write a design to a JSON file."""
    with open(path, "w") as fh:
        json.dump(design_to_dict(design), fh)


def load_design(path: str) -> Design:
    """Read a design from a JSON file."""
    with open(path) as fh:
        return design_from_dict(json.load(fh))
