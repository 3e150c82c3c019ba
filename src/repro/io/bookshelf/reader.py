"""Bookshelf reader: load a :class:`~repro.netlist.Design` from disk.

``read_design(aux_path)`` parses the suite referenced by the ``.aux`` file.
Rows must be uniform (same height/site width, contiguous stack) — that is
what the paper's problem statement and our :class:`~repro.rows.CoreArea`
assume; non-uniform ``.scl`` files raise a clear error rather than being
silently mangled.

Positions in ``.pl`` populate *both* ``gp_(x|y)`` and the working ``(x, y)``
— reading a file re-establishes "a global placement to be legalized".
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.io.bookshelf.format import AUX_KEY, drop_header, strip_comments
from repro.netlist.cell import CellMaster, RailType
from repro.netlist.design import Design
from repro.netlist.net import Pin
from repro.rows.core_area import CoreArea
from repro.rows.power import RailScheme


def read_design(aux_path: str, name: Optional[str] = None) -> Design:
    """Read a Bookshelf suite starting from its ``.aux`` file."""
    directory = os.path.dirname(os.path.abspath(aux_path))
    files = _parse_aux(aux_path)

    def locate(ext: str) -> Optional[str]:
        for fname in files:
            if fname.endswith("." + ext):
                return os.path.join(directory, fname)
        return None

    nodes_path = locate("nodes")
    pl_path = locate("pl")
    scl_path = locate("scl")
    nets_path = locate("nets")
    rails_path = locate("rails")
    fences_path = locate("fences")
    if not (nodes_path and pl_path and scl_path):
        raise ValueError(f"aux file {aux_path} must reference .nodes, .pl and .scl")

    core, row0_rail_hint = _parse_scl(scl_path)
    rails = _parse_rails(rails_path) if rails_path and os.path.exists(rails_path) else {}
    if rails.get("__row0__") is not None:
        core = CoreArea(
            xl=core.xl,
            yl=core.yl,
            num_rows=core.num_rows,
            row_height=core.row_height,
            num_sites=core.num_sites,
            site_width=core.site_width,
            rails=RailScheme(bottom_rail_of_row_0=rails["__row0__"]),
        )
    _ = row0_rail_hint

    design_name = name or os.path.splitext(os.path.basename(aux_path))[0]
    design = Design(name=design_name, core=core)
    _parse_nodes(nodes_path, design, rails)
    _parse_pl(pl_path, design)
    if nets_path and os.path.exists(nets_path):
        _parse_nets(nets_path, design)
    if fences_path and os.path.exists(fences_path):
        _parse_fences(fences_path, design)
        design.validate_fences()
    design.validate_coordinates()
    return design


# ----------------------------------------------------------------------
# Individual file parsers
# ----------------------------------------------------------------------
def _read_lines(path: str) -> List[str]:
    with open(path) as fh:
        return list(strip_comments(iter(fh)))


def _parse_aux(path: str) -> List[str]:
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"empty aux file {path}")
    tokens = lines[0].replace(":", " ").split()
    if tokens and tokens[0] == AUX_KEY:
        tokens = tokens[1:]
    return tokens


def _parse_scl(path: str) -> Tuple[CoreArea, Optional[RailType]]:
    lines = drop_header(_read_lines(path), "scl")
    rows: List[dict] = []
    current: Optional[dict] = None
    for line in lines:
        tokens = line.replace(":", " ").split()
        if not tokens:
            continue
        key = tokens[0].lower()
        if key == "numrows":
            continue
        if key == "corerow":
            current = {}
        elif key == "end":
            if current is not None:
                rows.append(current)
            current = None
        elif current is not None:
            if key == "coordinate":
                current["y"] = float(tokens[1])
            elif key == "height":
                current["height"] = float(tokens[1])
            elif key == "sitewidth":
                current["site_width"] = float(tokens[1])
            elif key == "subroworigin":
                current["xl"] = float(tokens[1])
                if "numsites" in (t.lower() for t in tokens):
                    idx = [t.lower() for t in tokens].index("numsites")
                    current["num_sites"] = int(tokens[idx + 1])
    if not rows:
        raise ValueError(f"no CoreRow entries in {path}")
    rows.sort(key=lambda r: r["y"])
    height = rows[0]["height"]
    site_width = rows[0].get("site_width", 1.0)
    xl = rows[0].get("xl", 0.0)
    num_sites = rows[0].get("num_sites", 1)
    for i, row in enumerate(rows):
        if abs(row["height"] - height) > 1e-9:
            raise ValueError("non-uniform row heights are not supported")
        if abs(row.get("site_width", site_width) - site_width) > 1e-9:
            raise ValueError("non-uniform site widths are not supported")
        if abs(row.get("xl", xl) - xl) > 1e-9 or row.get("num_sites", num_sites) != num_sites:
            raise ValueError("rows with differing extents are not supported")
        expected_y = rows[0]["y"] + i * height
        if abs(row["y"] - expected_y) > 1e-6:
            raise ValueError("rows must form a contiguous stack")
    core = CoreArea(
        xl=xl,
        yl=rows[0]["y"],
        num_rows=len(rows),
        row_height=height,
        num_sites=num_sites,
        site_width=site_width,
    )
    return core, None


def _parse_rails(path: str) -> Dict[str, RailType]:
    """Parse the ``.rails`` extension file; key ``__row0__`` holds parity."""
    rails: Dict[str, RailType] = {}
    lines = drop_header(_read_lines(path), "rails")
    for line in lines:
        tokens = line.replace(":", " ").split()
        if not tokens:
            continue
        if tokens[0].lower() == "row0bottomrail":
            rails["__row0__"] = RailType(tokens[1])
        elif len(tokens) >= 2:
            rails[tokens[0]] = RailType(tokens[1])
    return rails


def _parse_fences(path: str, design: Design) -> None:
    """Parse the ``.fences`` extension file written by the Bookshelf writer."""
    lines = drop_header(_read_lines(path), "fences")
    name: Optional[str] = None
    rects: List[Tuple[float, float, float, float]] = []
    members: List[str] = []
    for line in lines:
        tokens = line.replace(":", " ").split()
        if not tokens:
            continue
        key = tokens[0].lower()
        if key == "fence":
            name = tokens[1]
            rects = []
            members = []
        elif key == "end":
            if name is None:
                raise ValueError(f"stray End in {path}")
            design.add_fence(name, rects, members)
            name = None
        elif key == "rect":
            rects.append(
                (float(tokens[1]), float(tokens[2]),
                 float(tokens[3]), float(tokens[4]))
            )
        elif key == "member":
            members.extend(tokens[1:])
        elif name is None:
            raise ValueError(f"unexpected line in {path}: {line!r}")


def _parse_nodes(path: str, design: Design, rails: Dict[str, RailType]) -> None:
    lines = drop_header(_read_lines(path), "nodes")
    row_h = design.core.row_height
    for line in lines:
        tokens = line.split()
        if tokens[0].lower().startswith(("numnodes", "numterminals")):
            continue
        name = tokens[0]
        width = float(tokens[1])
        height = float(tokens[2])
        fixed = len(tokens) > 3 and tokens[3].lower().startswith("terminal")
        height_rows = max(1, round(height / row_h))
        if abs(height_rows * row_h - height) > 1e-6 * row_h:
            raise ValueError(
                f"node {name}: height {height} is not a multiple of the row "
                f"height {row_h}"
            )
        bottom_rail = rails.get(name)
        if height_rows % 2 == 0 and bottom_rail is None:
            # Standard Bookshelf has no rail info; default even-height cells
            # to VSS-bottom so they remain placeable (documented extension).
            bottom_rail = RailType.VSS
        master_name = _master_name(width, height_rows, bottom_rail)
        master = design.masters.get(master_name) or CellMaster(
            name=master_name,
            width=width,
            height_rows=height_rows,
            bottom_rail=bottom_rail,
        )
        design.add_cell(name, master, 0.0, 0.0, fixed=fixed)


def _master_name(width: float, height_rows: int, rail: Optional[RailType]) -> str:
    suffix = f"_{rail.value}" if rail is not None else ""
    return f"w{width:g}_h{height_rows}{suffix}"


def _parse_pl(path: str, design: Design) -> None:
    lines = drop_header(_read_lines(path), "pl")
    by_name = {cell.name: cell for cell in design.cells}
    for line in lines:
        tokens = line.replace(":", " ").split()
        if not tokens or tokens[0].lower().startswith("numnodes"):
            continue
        name = tokens[0]
        cell = by_name.get(name)
        if cell is None:
            raise ValueError(f".pl references unknown node {name!r}")
        x, y = float(tokens[1]), float(tokens[2])
        cell.gp_x = cell.x = x
        cell.gp_y = cell.y = y
        if len(tokens) > 3 and tokens[3] in ("FS", "S"):
            cell.flipped = True
        if "/FIXED" in line or (tokens and tokens[-1].upper() == "FIXED"):
            cell.fixed = True


def _parse_nets(path: str, design: Design) -> None:
    lines = drop_header(_read_lines(path), "nets")
    by_name = {cell.name: cell for cell in design.cells}
    i = 0
    net = None
    remaining = 0
    for line in lines:
        tokens = line.replace(":", " ").split()
        if not tokens:
            continue
        key = tokens[0].lower()
        if key in ("numnets", "numpins"):
            continue
        if key == "netdegree":
            degree = int(tokens[1])
            net_name = tokens[2] if len(tokens) > 2 else f"net{i}"
            net = design.add_net(net_name)
            remaining = degree
            i += 1
            continue
        if net is None or remaining <= 0:
            raise ValueError(f"unexpected pin line in {path}: {line!r}")
        cell_name = tokens[0]
        # Token layout: <cell> <dir> : <dx> <dy>  (':' already removed).
        dx = float(tokens[2]) if len(tokens) > 2 else 0.0
        dy = float(tokens[3]) if len(tokens) > 3 else 0.0
        cell = by_name.get(cell_name)
        net.add_pin(Pin(cell=cell, offset_x=dx, offset_y=dy))
        remaining -= 1
