"""Deterministic SVG scene rendering: elevation shading with an obstacle
overlay, an optional route polyline, and desired-versus-actual trajectory
traces.  Identical inputs always produce byte-identical files."""

from __future__ import annotations

import numpy as np

from .global_route import PlannedRoute
from .terrain import DRY_SLOPE_LIMIT, ElevationGrid, build_obstacle_mask

# light-to-dark terrain ramp, low to high elevation
ELEVATION_COLORS = [
    "#f1eadb", "#e4ddc0", "#d4d0a5", "#bfc38c", "#a7b578",
    "#8ea368", "#758f5c", "#5d7a52", "#486548", "#35503d",
]
OBSTACLE_COLOR = "#7987a6"
ROUTE_COLOR = "#c23b22"
DESIRED_COLOR = "#1f5fc4"
ACTUAL_COLOR = "#111111"


class RenderError(ValueError):
    """Raised when scene layers do not share consistent extents."""


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class SvgScene:
    """Accumulates SVG elements in world coordinates (y up), then writes them
    with a fixed viewport transform."""

    def __init__(self, x_min, x_max, y_min, y_max, width_px=800):
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        span_x = max(x_max - x_min, 1e-9)
        span_y = max(y_max - y_min, 1e-9)
        self.scale = width_px / span_x
        self.width = width_px
        self.height = span_y * self.scale
        self.elements: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return ((x - self.x_min) * self.scale,
                (self.y_max - y) * self.scale)  # SVG y axis points down

    def rect(self, x, y, w, h, color):
        px, py = self.to_px(x, y + h)
        self.elements.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w * self.scale)}" '
            f'height="{_fmt(h * self.scale)}" fill="{color}"/>')

    def polyline(self, points, color, width=2.0, dashed=False):
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}"
                       for px, py in (self.to_px(x, y) for x, y in points))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{dash}/>')

    def text(self, x_px, y_px, content, color="#333333"):
        self.elements.append(
            f'<text x="{_fmt(x_px)}" y="{_fmt(y_px)}" fill="{color}" '
            f'font-family="monospace" font-size="12">{content}</text>')

    def write(self, path: str) -> None:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" viewBox="0 0 {_fmt(self.width)} '
            f'{_fmt(self.height)}">\n')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            for el in self.elements:
                fh.write(el + "\n")
            fh.write("</svg>\n")


def _elevation_layers(scene: SvgScene, grid: ElevationGrid) -> None:
    h = grid.heights
    lo, hi = float(h.min()), float(h.max())
    span = hi - lo
    n_colors = len(ELEVATION_COLORS)
    if span <= 0:
        bins = np.zeros_like(h, dtype=int)
    else:
        bins = np.minimum((h - lo) / span * n_colors, n_colors - 1).astype(int)
    cell = grid.cell_size
    for row in range(grid.n_rows):
        y = grid.origin[1] + (grid.n_rows - 1 - row) * cell - cell / 2
        col = 0
        while col < grid.n_cols:
            run = col
            b = bins[row, col]
            while run + 1 < grid.n_cols and bins[row, run + 1] == b:
                run += 1
            x = grid.origin[0] + col * cell - cell / 2
            scene.rect(x, y, (run - col + 1) * cell, cell, ELEVATION_COLORS[b])
            col = run + 1


def _obstacle_layer(scene: SvgScene, grid: ElevationGrid) -> None:
    # nodes unenterable under the nominal dry slope bound, derived from the
    # grid alone so the overlay never depends on unsupplied mask files
    mask = build_obstacle_mask(grid, steep_limit=DRY_SLOPE_LIMIT)
    cell = grid.cell_size
    for row, col in zip(*np.nonzero(mask.blocked)):
        x = grid.origin[0] + col * cell - cell / 2
        y = grid.origin[1] + (grid.n_rows - 1 - row) * cell - cell / 2
        scene.rect(x, y, cell, cell, OBSTACLE_COLOR)


def _check_extent(grid: ElevationGrid, xs, ys, layer: str) -> None:
    pad = grid.cell_size
    x_lo = grid.origin[0] - pad
    x_hi = grid.origin[0] + (grid.n_cols - 1) * grid.cell_size + pad
    y_lo = grid.origin[1] - pad
    y_hi = grid.origin[1] + (grid.n_rows - 1) * grid.cell_size + pad
    if (np.min(xs) < x_lo or np.max(xs) > x_hi
            or np.min(ys) < y_lo or np.max(ys) > y_hi):
        raise RenderError(f"{layer} extent is inconsistent with the grid extent")


def render_scene(
    grid: ElevationGrid,
    route: PlannedRoute | None = None,
    log: dict[str, np.ndarray] | None = None,
    out_path: str = "scene.svg",
) -> None:
    """Compose elevation shading, obstacle overlay, and optional route and
    trajectory layers into one SVG file.  ``log`` holds simulation log
    columns by their CSV header name; the desired (xd, yd) and actual (x, y)
    traces are drawn."""
    cell = grid.cell_size
    x_min = grid.origin[0] - cell / 2
    x_max = grid.origin[0] + (grid.n_cols - 1) * cell + cell / 2
    y_min = grid.origin[1] - cell / 2
    y_max = grid.origin[1] + (grid.n_rows - 1) * cell + cell / 2
    scene = SvgScene(x_min, x_max, y_min, y_max)

    _elevation_layers(scene, grid)
    _obstacle_layer(scene, grid)

    legend_y = 16
    if route is not None and route.waypoints:
        for r, c in route.waypoints:
            if not grid.in_bounds(r, c):
                raise RenderError(
                    f"route extent is inconsistent with the grid extent: "
                    f"node ({r}, {c}) outside a {grid.n_rows}x{grid.n_cols} grid")
        pts = [grid.node_position(r, c) for r, c in route.waypoints]
        scene.polyline(pts, ROUTE_COLOR, width=2.5)
        scene.text(8, legend_y, "route", ROUTE_COLOR)
        legend_y += 16

    if log is not None and len(log["x"]) > 0:
        _check_extent(grid, log["xd"], log["yd"], "desired trajectory")
        _check_extent(grid, log["x"], log["y"], "actual trajectory")
        scene.polyline(list(zip(log["xd"], log["yd"])), DESIRED_COLOR, width=1.5, dashed=True)
        scene.polyline(list(zip(log["x"], log["y"])), ACTUAL_COLOR, width=1.5)
        scene.text(8, legend_y, "desired (dashed)", DESIRED_COLOR)
        legend_y += 16
        scene.text(8, legend_y, "actual (solid)", ACTUAL_COLOR)

    scene.write(out_path)
