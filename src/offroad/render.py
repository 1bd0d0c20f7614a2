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
WIDTH_PX = 800   # the height follows from the extent's aspect ratio


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class SvgScene:
    """Accumulates SVG elements in world coordinates (y up), then writes them
    with a fixed viewport transform."""

    def __init__(self, x_min, x_max, y_min, y_max):
        self.x_min, self.y_max = x_min, y_max
        span_x = max(x_max - x_min, 1e-9)
        span_y = max(y_max - y_min, 1e-9)
        self.scale = WIDTH_PX / span_x
        self.height = span_y * self.scale
        self.elements: list[str] = []

    def to_px(self, x, y):
        """Pixel coordinates of world points, floats or arrays."""
        return ((x - self.x_min) * self.scale,
                (self.y_max - y) * self.scale)  # SVG y axis points down

    def rect(self, x, y, w, h, color):
        px, py = self.to_px(x, y + h)
        self.elements.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w * self.scale)}" '
            f'height="{_fmt(h * self.scale)}" fill="{color}"/>')

    def polyline(self, xs: np.ndarray, ys: np.ndarray, color, width, dashed=False):
        px, py = self.to_px(xs, ys)
        pts = " ".join(map("{:.3f},{:.3f}".format, px.tolist(), py.tolist()))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"{dash}/>')

    def text(self, x_px, y_px, content, color):
        self.elements.append(
            f'<text x="{_fmt(x_px)}" y="{_fmt(y_px)}" fill="{color}" '
            f'font-family="monospace" font-size="12">{content}</text>')

    def write(self, path: str) -> None:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH_PX)}" '
            f'height="{_fmt(self.height)}" viewBox="0 0 {_fmt(WIDTH_PX)} '
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
    # one rect per run of equal bins along a row: a run starts where the bin
    # changes (every row starts one) and lasts until the next run starts
    rows, cols = np.nonzero(np.diff(bins, axis=1, prepend=-1))
    runs = np.diff(rows * grid.n_cols + cols, append=bins.size)
    for row, col, run, b in zip(rows.tolist(), cols.tolist(), runs.tolist(),
                                bins[rows, cols].tolist()):
        x, y = grid.node_position(row, col)
        scene.rect(x - cell / 2, y - cell / 2, run * cell, cell, ELEVATION_COLORS[b])


def _obstacle_layer(scene: SvgScene, grid: ElevationGrid) -> None:
    # nodes unenterable under the nominal dry slope bound, derived from the
    # grid alone so the overlay never depends on unsupplied mask files
    mask = build_obstacle_mask(grid, steep_limit=DRY_SLOPE_LIMIT)
    cell = grid.cell_size
    for row, col in zip(*np.nonzero(mask.blocked)):
        x, y = grid.node_position(row, col)
        scene.rect(x - cell / 2, y - cell / 2, cell, cell, OBSTACLE_COLOR)


def _check_extent(grid: ElevationGrid, xs, ys, layer: str) -> None:
    # NaN passes every comparison below: min and max of an array holding one
    # are NaN
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"{layer} has non-finite coordinates")
    pad = grid.cell_size
    x_min, x_max, y_min, y_max = grid.bounds
    if (np.min(xs) < x_min - pad or np.max(xs) > x_max + pad
            or np.min(ys) < y_min - pad or np.max(ys) > y_max + pad):
        raise ValueError(f"{layer} extent is inconsistent with the grid extent")


def render_scene(
    grid: ElevationGrid,
    route: PlannedRoute | None,
    log: dict[str, np.ndarray] | None,
    out_path: str,
) -> None:
    """Compose elevation shading, obstacle overlay, and optional route and
    trajectory layers into one SVG file.  ``log`` holds simulation log
    columns by their CSV header name; the desired (xd, yd) and actual (x, y)
    traces are drawn."""
    half = grid.cell_size / 2
    x_min, x_max, y_min, y_max = grid.bounds
    scene = SvgScene(x_min - half, x_max + half, y_min - half, y_max + half)

    _elevation_layers(scene, grid)
    _obstacle_layer(scene, grid)

    legend_y = 16
    if route is not None and route.waypoints:
        for r, c in route.waypoints:
            if not grid.in_bounds(r, c):
                raise ValueError(
                    f"route extent is inconsistent with the grid extent: "
                    f"node ({r}, {c}) outside a {grid.n_rows}x{grid.n_cols} grid")
        scene.polyline(*grid.node_position(*np.array(route.waypoints).T),
                       ROUTE_COLOR, width=2.5)
        scene.text(8, legend_y, "route", ROUTE_COLOR)
        legend_y += 16

    if log is not None and len(log["x"]) > 0:
        _check_extent(grid, log["xd"], log["yd"], "desired trajectory")
        _check_extent(grid, log["x"], log["y"], "actual trajectory")
        scene.polyline(log["xd"], log["yd"], DESIRED_COLOR, width=1.5, dashed=True)
        scene.polyline(log["x"], log["y"], ACTUAL_COLOR, width=1.5)
        scene.text(8, legend_y, "desired (dashed)", DESIRED_COLOR)
        legend_y += 16
        scene.text(8, legend_y, "actual (solid)", ACTUAL_COLOR)

    scene.write(out_path)
