"""Dependency-free SVG rendering of placements (the paper's Figure 5).

``render_svg(design)`` draws the core outline, rows, every cell (blue, the
paper's colour; double-height cells darker), and optionally a red
displacement segment from each cell's GP position to its legalized
position — exactly the visualization of Figure 5(a)/(b).

The output is a plain SVG string; ``save_svg`` writes it to a file.
"""

from __future__ import annotations

from typing import Optional

from repro.netlist.design import Design

CELL_FILL = "#4f81d6"
CELL_FILL_MULTI = "#2a5bb0"
CELL_STROKE = "#1d3c73"
DISP_COLOR = "#d62727"
ROW_COLOR = "#dddddd"
CORE_COLOR = "#333333"


def render_svg(
    design: Design,
    width_px: int = 900,
    show_displacement: bool = True,
    show_rows: bool = True,
    clip: Optional[tuple] = None,
) -> str:
    """Render the design to an SVG string.

    ``clip`` is an optional ``(xl, yl, xh, yh)`` window in design units for
    partial layouts (Figure 5(b)).
    """
    core = design.core
    xl, yl, xh, yh = clip if clip else (core.xl, core.yl, core.xh, core.yh)
    span_x = max(xh - xl, 1e-9)
    span_y = max(yh - yl, 1e-9)
    scale = width_px / span_x
    height_px = span_y * scale

    def sx(x: float) -> float:
        return (x - xl) * scale

    def sy(y: float) -> float:
        # SVG's y axis points down; designs' points up.
        return height_px - (y - yl) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
        f'<rect x="0" y="0" width="{width_px:.0f}" height="{height_px:.0f}" '
        f'fill="white"/>',
    ]

    if show_rows:
        for r in range(core.num_rows + 1):
            y = core.yl + r * core.row_height
            if not yl <= y <= yh:
                continue
            parts.append(
                f'<line x1="0" y1="{sy(y):.2f}" x2="{width_px}" y2="{sy(y):.2f}" '
                f'stroke="{ROW_COLOR}" stroke-width="0.5"/>'
            )

    row_h = core.row_height
    for cell in design.cells:
        rect = cell.rect(row_h)
        if rect.xh < xl or rect.xl > xh or rect.yh < yl or rect.yl > yh:
            continue
        fill = CELL_FILL_MULTI if cell.height_rows > 1 else CELL_FILL
        if cell.fixed:
            fill = "#888888"
        parts.append(
            f'<rect x="{sx(rect.xl):.2f}" y="{sy(rect.yh):.2f}" '
            f'width="{rect.width * scale:.2f}" height="{rect.height * scale:.2f}" '
            f'fill="{fill}" stroke="{CELL_STROKE}" stroke-width="0.4"/>'
        )

    if show_displacement:
        for cell in design.movable_cells:
            if cell.displacement() == 0.0:
                continue
            x0, y0 = cell.gp_x, cell.gp_y
            x1, y1 = cell.x, cell.y
            if not (xl <= x0 <= xh or xl <= x1 <= xh):
                continue
            parts.append(
                f'<line x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" '
                f'x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" '
                f'stroke="{DISP_COLOR}" stroke-width="0.8" opacity="0.8"/>'
            )

    parts.append(
        f'<rect x="{sx(core.xl):.2f}" y="{sy(core.yh):.2f}" '
        f'width="{core.width * scale:.2f}" height="{core.height * scale:.2f}" '
        f'fill="none" stroke="{CORE_COLOR}" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(design: Design, path: str, **kwargs) -> str:
    """Render and write an SVG file; returns the path."""
    svg = render_svg(design, **kwargs)
    with open(path, "w") as fh:
        fh.write(svg)
    return path


def render_convergence_svg(
    history,
    width_px: int = 640,
    height_px: int = 360,
    title: str = "MMSIM convergence",
) -> str:
    """Render an iteration-vs-step curve (log y) as a standalone SVG.

    *history* is the per-sweep ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞ sequence, e.g. the
    ``step`` fields of the solver's telemetry ``iteration`` events
    (:meth:`repro.telemetry.EventSink.events`).
    """
    import math

    values = [v for v in history if v > 0.0]
    if not values:
        values = [1.0]
    logs = [math.log10(v) for v in values]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    margin = 42.0
    plot_w = width_px - 2 * margin
    plot_h = height_px - 2 * margin

    def px(i: int) -> float:
        return margin + plot_w * (i / max(len(logs) - 1, 1))

    def py(value: float) -> float:
        return margin + plot_h * (1.0 - (value - lo) / (hi - lo))

    points = " ".join(f"{px(i):.1f},{py(v):.1f}" for i, v in enumerate(logs))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
        f'<text x="{width_px / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    # Decade gridlines.
    for decade in range(math.ceil(lo), math.floor(hi) + 1):
        y = py(decade)
        parts.append(
            f'<line x1="{margin}" y1="{y:.1f}" x2="{margin + plot_w}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">1e{decade}</text>'
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{CELL_FILL}" '
        f'stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{width_px / 2:.0f}" y="{height_px - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">iteration '
        f'(n={len(history)})</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
