"""Terminal (ASCII) charts for the figure experiments.

The paper's figures are line charts of a measure vs. the degree of
sharing (or load, or machine size) with one series per scheme.  This
module renders the same shape in plain text so `examples/` and
`benchmarks/` can show *figures*, not just tables, without a plotting
dependency.  :func:`worm_map` draws one plan's invalidation worms on
the mesh (``repro worms`` and ``examples/worm_paths.py``).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.brcp.model import conformant_walk
from repro.core.grouping import SCHEMES
from repro.core.plan import InvalidationPlan
from repro.network.routing import make_routing
from repro.network.topology import Mesh2D

#: Series marker characters, assigned in order.
MARKERS = "ox*+#%@&"


def ascii_chart(series: Mapping[str, Sequence[tuple[float, float]]],
                title: str = "", width: int = 60, height: int = 16,
                x_label: str = "", y_label: str = "") -> str:
    """Render ``{name: [(x, y), ...]}`` as an ASCII scatter/line chart.

    Points are plotted with one marker per series; a legend maps markers
    to series names.  Axes are linear and annotated with min/max.
    """
    if not series:
        raise ValueError("no series to plot")
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("series contain no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    grid = [[" "] * width for _ in range(height)]

    def cell(x: float, y: float) -> tuple[int, int]:
        cx = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
        cy = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
        return cx, height - 1 - cy

    def draw_segment(a, b, marker):
        # Coarse linear interpolation between consecutive points.
        ax, ay = cell(*a)
        bx, by = cell(*b)
        steps = max(abs(bx - ax), abs(by - ay), 1)
        for i in range(steps + 1):
            cx = ax + (bx - ax) * i // steps
            cy = ay + (by - ay) * i // steps
            if grid[cy][cx] == " ":
                grid[cy][cx] = "."
        # End points get the series marker (drawn after the line).

    for index, (name, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        ordered = sorted(pts)
        for a, b in zip(ordered, ordered[1:]):
            draw_segment(a, b, marker)
    for index, (name, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in pts:
            cx, cy = cell(x, y)
            grid[cy][cx] = marker

    lines = []
    if title:
        lines.append(title)
    y_hi_tag = f"{y_hi:g}"
    y_lo_tag = f"{y_lo:g}"
    pad = max(len(y_hi_tag), len(y_lo_tag))
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            tag = y_hi_tag.rjust(pad)
        elif row_idx == height - 1:
            tag = y_lo_tag.rjust(pad)
        else:
            tag = " " * pad
        lines.append(f"{tag} |{''.join(row)}")
    lines.append(" " * pad + " +" + "-" * width)
    x_line = f"{x_lo:g}".ljust(width - len(f"{x_hi:g}")) + f"{x_hi:g}"
    lines.append(" " * (pad + 2) + x_line)
    if x_label or y_label:
        lines.append(" " * (pad + 2)
                     + (f"x: {x_label}" if x_label else "")
                     + ("   " if x_label and y_label else "")
                     + (f"y: {y_label}" if y_label else ""))
    legend = "   ".join(f"{MARKERS[i % len(MARKERS)]} {name}"
                        for i, name in enumerate(series))
    lines.append(" " * (pad + 2) + legend)
    return "\n".join(lines)


def chart_from_rows(rows: Sequence[dict], x: str, y: str,
                    series_key: str = "scheme",
                    title: Optional[str] = None, **kw) -> str:
    """Build an :func:`ascii_chart` from experiment row dicts."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(str(row[series_key]), []).append(
            (float(row[x]), float(row[y])))
    return ascii_chart(series, title=title or f"{y} vs {x}", **kw)


def worm_map(mesh: Mesh2D, plan: InvalidationPlan) -> str:
    """ASCII map of ``plan``'s invalidation worms, north row on top:
    each worm's BRCP walk is stamped with its own letter, uppercase at
    the sharers it covers, over ``@`` for the home."""
    routing = make_routing(SCHEMES[plan.scheme][1], mesh)
    grid = [["." for _ in range(mesh.width)] for _ in range(mesh.height)]
    for i, group in enumerate(plan.groups):
        walk = conformant_walk(routing, plan.home, list(group.dests))
        assert walk is not None, "scheme produced a non-conformant path"
        label = chr(ord("a") + i % 26)
        for node in walk[1:]:
            x, y = mesh.coords(node)
            if grid[y][x] == ".":
                grid[y][x] = label
    for s in plan.sharers:
        x, y = mesh.coords(s)
        grid[y][x] = grid[y][x].upper() if grid[y][x] != "." else "?"
    hx, hy = mesh.coords(plan.home)
    grid[hy][hx] = "@"
    lines = [f"{plan.scheme}: {len(plan.groups)} invalidation worm(s) for "
             f"{len(plan.sharers)} sharer(s)"]
    lines += [" ".join(row) for row in reversed(grid)]
    lines.append("@ = home, UPPERCASE = sharer covered by that worm, "
                 "lowercase = pass-through")
    return "\n".join(lines)
