"""Gridded terrain: elevation rasters, a twice-differentiable surface model,
surface-aligned frames, inter-node slopes, and traversability masks.

Grid conventions
----------------
Heights are stored row-major with row 0 the northernmost row (the order the
CSV format uses).  Node (row, col) sits at planar position

    x = x0 + col * cell_size
    y = y0 + (n_rows - 1 - row) * cell_size

so the origin (x0, y0) is the southwest corner node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

# Slope limits for the two supported weather regimes (rise/run).
DRY_SLOPE_LIMIT = math.tan(math.radians(6.90))
WET_SLOPE_LIMIT = math.tan(math.radians(2.77))

# Obstacle provenance codes, in precedence order.
CLEAR = 0
WATER = 1
FOLIAGE = 2
STEEP = 3
PROVENANCE_LABELS = {CLEAR: "clear", WATER: "water", FOLIAGE: "foliage_or_building", STEEP: "steep"}

# 8-connected neighborhood offsets as (drow, dcol).
NEIGHBOR_OFFSETS = (
    (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1),
)


class GridFormatError(ValueError):
    """Raised when an elevation, mask or other numeric CSV is malformed."""


class OutOfBoundsError(ValueError):
    """Raised when a surface query falls outside the grid extent."""


@dataclass(frozen=True)
class ElevationGrid:
    """Uniform raster of terrain heights (meters)."""

    n_cols: int
    n_rows: int
    cell_size: float
    origin: tuple[float, float]
    heights: np.ndarray  # shape (n_rows, n_cols), row 0 = north

    def __post_init__(self):
        if self.n_cols < 2 or self.n_rows < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        h = np.asarray(self.heights, dtype=float)
        if h.shape != (self.n_rows, self.n_cols):
            raise ValueError(f"heights shape {h.shape} != ({self.n_rows}, {self.n_cols})")
        if not np.all(np.isfinite(h)):
            raise ValueError("heights must all be finite")
        object.__setattr__(self, "heights", h)

    @property
    def x_axis(self) -> np.ndarray:
        return self.origin[0] + np.arange(self.n_cols) * self.cell_size

    @property
    def y_axis(self) -> np.ndarray:
        return self.origin[1] + np.arange(self.n_rows) * self.cell_size

    def node_position(self, row: int, col: int) -> tuple[float, float]:
        return (
            self.origin[0] + col * self.cell_size,
            self.origin[1] + (self.n_rows - 1 - row) * self.cell_size,
        )

    def node_height(self, row: int, col: int) -> float:
        return float(self.heights[row, col])

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.n_rows and 0 <= col < self.n_cols

    @cached_property
    def neighbor_slopes(self) -> np.ndarray:
        """Slope to each 8-neighbor for every node; NaN where the neighbor is
        off-grid.

        Shape (8, n_rows, n_cols), axis 0 ordered like NEIGHBOR_OFFSETS.  Built
        once per grid, so the mask and the route tables share it.  The result
        is read-only, and so are the heights from then on: a later change
        would leave it stale.
        """
        h = self.heights
        h.flags.writeable = False
        out = np.full((len(NEIGHBOR_OFFSETS), self.n_rows, self.n_cols), np.nan)
        for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
            run = self.cell_size * math.hypot(dr, dc)
            src, dst = neighbor_slices(h.shape, dr, dc)
            out[(k,) + src] = np.abs(h[dst] - h[src]) / run
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class WeatherCondition:
    """Driving regime plus the slope bound it imposes (rise/run)."""

    kind: str  # "dry" or "wet"
    slope_limit: float

    def __post_init__(self):
        if self.kind not in ("dry", "wet"):
            raise ValueError(f"unknown weather kind {self.kind!r}")
        if not self.slope_limit > 0:
            raise ValueError("slope_limit must be positive")

    @classmethod
    def dry(cls, slope_limit: float = DRY_SLOPE_LIMIT) -> "WeatherCondition":
        return cls("dry", slope_limit)

    @classmethod
    def wet(cls, slope_limit: float = WET_SLOPE_LIMIT) -> "WeatherCondition":
        return cls("wet", slope_limit)


@dataclass(frozen=True)
class ObstacleMask:
    """Per-node blocked flags with the reason each node was blocked."""

    blocked: np.ndarray     # bool, shape (n_rows, n_cols)
    provenance: np.ndarray  # int codes, same shape

    def reason(self, row: int, col: int) -> str:
        return PROVENANCE_LABELS[int(self.provenance[row, col])]


class SurfaceModel:
    """Smooth interpolated surface z = f(x, y) over an elevation grid.

    A tensor-product not-a-knot cubic spline interpolant: twice continuously
    differentiable in the grid interior, which the vertical-acceleration
    constraint requires, and it reproduces polynomial surfaces up to cubics
    exactly.  Grids narrower than 4 nodes per axis fall back to the highest
    spline degree the axis supports.

    Construction converts the spline to per-cell bicubic coefficient tensors
    so a single query returns f and all partials to second order cheaply.
    """

    def __init__(self, grid: ElevationGrid):
        self.grid = grid
        xs = grid.x_axis
        ys = grid.y_axis
        # values[i, j] = height at (xs[i], ys[j]); row 0 of the raster is north.
        values = np.flipud(grid.heights).T

        sx = CubicSpline(xs, values, axis=0, bc_type="not-a-knot")
        # spline the x-coefficients along y: c shapes (4, nx-1, ny) -> (4, ny-1, 4, nx-1)
        sy = CubicSpline(ys, np.moveaxis(sx.c, 2, 0), axis=0, bc_type="not-a-knot")
        # coeffs[i, j, p, q] multiplies (x - xs[i])**p * (y - ys[j])**q
        self._coeffs = np.ascontiguousarray(
            np.transpose(sy.c[::-1, :, ::-1, :], (3, 1, 2, 0))
        )
        self._xs = xs
        self._ys = ys
        self._x_min, self._x_max = float(xs[0]), float(xs[-1])
        self._y_min, self._y_max = float(ys[0]), float(ys[-1])
        self._inv_cell = 1.0 / grid.cell_size
        self._nx_cells = grid.n_cols - 1
        self._ny_cells = grid.n_rows - 1

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self._x_min, self._x_max, self._y_min, self._y_max)

    def contains(self, x: float, y: float) -> bool:
        return self._x_min <= x <= self._x_max and self._y_min <= y <= self._y_max

    def _cell(self, x: float, y: float) -> tuple[int, int, float, float]:
        if not self.contains(x, y):
            raise OutOfBoundsError(
                f"query ({x:.3f}, {y:.3f}) outside grid extent "
                f"x=[{self._x_min}, {self._x_max}], y=[{self._y_min}, {self._y_max}]"
            )
        # axes are uniform, so the cell index is direct arithmetic
        i = min(max(int((x - self._x_min) * self._inv_cell), 0), self._nx_cells - 1)
        j = min(max(int((y - self._y_min) * self._inv_cell), 0), self._ny_cells - 1)
        return i, j, x - self._xs[i], y - self._ys[j]

    def eval(self, x: float, y: float) -> tuple[float, float, float, float, float, float]:
        """Evaluate the interpolant: returns (f, f_x, f_y, f_xx, f_yy, f_xy)."""
        i, j, u, v = self._cell(x, y)
        c = self._coeffs[i, j]
        bu = (1.0, u, u * u, u * u * u)
        bv = (1.0, v, v * v, v * v * v)
        du = (0.0, 1.0, 2.0 * u, 3.0 * u * u)
        dv = (0.0, 1.0, 2.0 * v, 3.0 * v * v)
        ddu = (0.0, 0.0, 2.0, 6.0 * u)
        ddv = (0.0, 0.0, 2.0, 6.0 * v)

        cv = c @ bv
        cdv = c @ dv
        f = bu @ cv
        f_x = du @ cv
        f_y = bu @ cdv
        f_xx = ddu @ cv
        f_yy = bu @ (c @ ddv)
        f_xy = du @ cdv
        return float(f), float(f_x), float(f_y), float(f_xx), float(f_yy), float(f_xy)

    def height(self, x: float, y: float) -> float:
        i, j, u, v = self._cell(x, y)
        c = self._coeffs[i, j]
        bu = (1.0, u, u * u, u * u * u)
        bv = (1.0, v, v * v, v * v * v)
        return float(bu @ (c @ bv))


def normal_with_gradient(jet: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit upward normal n = g/|g|, g = (-f_x, -f_y, 1), plus its spatial
    derivatives dn/dx and dn/dy, from a surface jet (f, f_x, f_y, f_xx, f_yy, f_xy)
    as returned by SurfaceModel.eval."""
    _, f_x, f_y, f_xx, f_yy, f_xy = jet
    g = np.array([-f_x, -f_y, 1.0])
    gx = np.array([-f_xx, -f_xy, 0.0])
    gy = np.array([-f_xy, -f_yy, 0.0])
    norm = math.sqrt(f_x * f_x + f_y * f_y + 1.0)
    n = g / norm
    dn_dx = gx / norm - g * (g @ gx) / norm**3
    dn_dy = gy / norm - g * (g @ gy) / norm**3
    return n, dn_dx, dn_dy


def surface_lift(
    jet: tuple, x_dot: float, y_dot: float, x_ddot: float, y_ddot: float
) -> tuple[float, float]:
    """Vertical velocity and acceleration implied by staying on the surface:

        z_dot  = f_x x_dot + f_y y_dot
        z_ddot = f_x x_ddot + f_xx x_dot^2 + f_yy y_dot^2
                 + f_y y_ddot + 2 f_xy x_dot y_dot

    ``jet`` is SurfaceModel.eval at the planar position.
    """
    _, f_x, f_y, f_xx, f_yy, f_xy = jet
    z_dot = f_x * x_dot + f_y * y_dot
    # f_xx * x_dot ** 2, not f_xx * x_dot * x_dot: the two round differently,
    # and written outputs (trajectory.csv az) are kept bit for bit
    z_ddot = (f_x * x_ddot + f_xx * x_dot ** 2 + f_yy * y_dot ** 2
              + f_y * y_ddot + 2.0 * f_xy * x_dot * y_dot)
    return z_dot, z_ddot


def euler_angles(n: np.ndarray) -> tuple[float, float]:
    """Roll and pitch of the surface-aligned frame from a unit upward normal.

    roll  = asin(-n_y)
    pitch = atan2(n_x, n_z)

    The third row of the roll-pitch rotation rebuilt from these angles equals
    the input normal.
    """
    if abs(math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) - 1.0) > 1e-6:
        raise ValueError("normal must be a unit vector")
    if n[2] <= 0:
        raise ValueError("normal must point upward (positive z)")
    phi = math.asin(-n[1])
    theta = math.atan2(n[0], n[2])
    return phi, theta


def rotation_from_angles(phi: float, theta: float) -> np.ndarray:
    """Rows are the surface-frame basis vectors expressed in ground coordinates.

    Composition of an x-axis roll after a y-axis pitch; row 3 is the surface
    normal.
    """
    cp, sp = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([
        [ct, 0.0, -st],
        [sp * st, cp, sp * ct],
        [cp * st, -sp, cp * ct],
    ])


def euler_rates(n: np.ndarray, n_dot: np.ndarray) -> tuple[float, float]:
    """Time derivatives of the surface-frame roll and pitch from the unit
    normal n and its time derivative n_dot.

    Exact chain rule through euler_angles:

        roll_rate  = -n_dot_y / cos(roll)
        pitch_rate = (n_z * n_dot_x - n_x * n_dot_z) / (n_x**2 + n_z**2)
    """
    xz = n[0] * n[0] + n[2] * n[2]
    cos_phi = math.sqrt(xz)  # = cos(asin(-n_y)), always >= n_z > 0
    if cos_phi < 1e-9:
        raise ValueError("gimbal condition: cos(roll) is numerically zero")
    phi_dot = -n_dot[1] / cos_phi
    theta_dot = (n[2] * n_dot[0] - n[0] * n_dot[2]) / xz
    return float(phi_dot), float(theta_dot)


def slope_between(grid: ElevationGrid, node_a: tuple[int, int], node_b: tuple[int, int]) -> float:
    """Rise/run between two 8-adjacent grid nodes; symmetric in its arguments."""
    if node_a == node_b:
        raise ValueError("nodes must differ")
    ra, ca = node_a
    rb, cb = node_b
    if not (grid.in_bounds(ra, ca) and grid.in_bounds(rb, cb)):
        raise ValueError("both nodes must lie inside the grid")
    dr, dc = rb - ra, cb - ca
    if max(abs(dr), abs(dc)) != 1:
        raise ValueError(f"nodes {node_a} and {node_b} are not 8-adjacent")
    rise = abs(grid.heights[rb, cb] - grid.heights[ra, ca])
    run = grid.cell_size * math.hypot(dr, dc)
    return float(rise / run)


def neighbor_slices(shape: tuple[int, int], dr: int, dc: int):
    """Index pair (src, dst) over an array of ``shape`` such that ``a[dst]``
    holds the (dr, dc)-neighbor of each node in ``a[src]``; nodes whose
    neighbor is off-grid are in neither."""
    n_rows, n_cols = shape
    src = (slice(max(0, -dr), n_rows - max(0, dr)), slice(max(0, -dc), n_cols - max(0, dc)))
    dst = (slice(max(0, dr), n_rows + min(0, dr)), slice(max(0, dc), n_cols + min(0, dc)))
    return src, dst


def build_obstacle_mask(
    grid: ElevationGrid,
    water_mask: np.ndarray | None = None,
    foliage_mask: np.ndarray | None = None,
    steep_limit: float = DRY_SLOPE_LIMIT,
) -> ObstacleMask:
    """Mark nodes that cannot be part of a route.

    A node is blocked when it has water, foliage or a building, or when every
    hop to an 8-neighbor exceeds ``steep_limit`` (the node cannot be entered
    or left at all under that bound).  Provenance keeps the first matching
    reason in the order water > foliage > steep.
    """
    shape = (grid.n_rows, grid.n_cols)
    provenance = np.zeros(shape, dtype=np.int8)

    slopes = grid.neighbor_slopes
    with np.errstate(invalid="ignore"):
        min_slope = np.nanmin(slopes, axis=0)
    steep = min_slope > steep_limit
    provenance[steep] = STEEP

    if foliage_mask is not None:
        foliage_mask = np.asarray(foliage_mask, dtype=bool)
        if foliage_mask.shape != shape:
            raise ValueError(f"foliage mask shape {foliage_mask.shape} != grid shape {shape}")
        provenance[foliage_mask] = FOLIAGE
    if water_mask is not None:
        water_mask = np.asarray(water_mask, dtype=bool)
        if water_mask.shape != shape:
            raise ValueError(f"water mask shape {water_mask.shape} != grid shape {shape}")
        provenance[water_mask] = WATER

    return ObstacleMask(blocked=provenance != CLEAR, provenance=provenance)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------
#
# Grid CSV format:
#   line 1: ncols,<int>
#   line 2: nrows,<int>
#   line 3: cellsize,<meters>
#   line 4: origin,<x0>,<y0>
#   then nrows data lines of ncols comma-separated heights, northernmost first.
# Mask CSVs repeat the grid's header exactly; data cells are 0 or 1.


def _parse_header(
    lines: list[str], numbers: list[int], path: str
) -> tuple[int, int, float, tuple[float, float]]:
    if len(lines) < 4:
        raise GridFormatError(f"{path}: expected a 4-line header, got {len(lines)} lines")

    def field(idx: int, name: str, n_values: int) -> list[str]:
        parts = [p.strip() for p in lines[idx].split(",")]
        if len(parts) != n_values + 1 or parts[0].lower() != name:
            raise GridFormatError(f"{path}:{numbers[idx]}: expected '{name},...' header line")
        return parts[1:]

    try:
        n_cols = int(field(0, "ncols", 1)[0])
        n_rows = int(field(1, "nrows", 1)[0])
        cell = float(field(2, "cellsize", 1)[0])
        ox, oy = (float(v) for v in field(3, "origin", 2))
    except ValueError as exc:
        raise GridFormatError(f"{path}: malformed header value ({exc})") from exc
    if n_cols < 2 or n_rows < 2:
        raise GridFormatError(f"{path}: grid must be at least 2x2, got {n_rows}x{n_cols}")
    if not cell > 0:
        raise GridFormatError(f"{path}:{numbers[2]}: cellsize must be positive, got {cell}")
    return n_cols, n_rows, cell, (ox, oy)


def _loadtxt(lines: list[str], **kwargs) -> np.ndarray:
    # comments=None: the default '#' would silently cut a data line short
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, **kwargs)


def parse_numeric_rows(
    lines: list[str], n_cols: int, path: str, numbers: list[int]
) -> np.ndarray:
    """Parse comma-separated numeric rows into a (len(lines), n_cols) float array.

    Tokens use numpy's float syntax: what ``float()`` accepts except ``_``
    digit separators and non-ASCII digits.  ``numbers[r]`` is the file line
    number of ``lines[r]``; a GridFormatError names the offending line and,
    for a token that is not a number, its 0-based column.
    """
    for line, number in zip(lines, numbers):
        n_values = line.count(",") + 1
        if n_values != n_cols:
            raise GridFormatError(
                f"{path}:{number}: expected {n_cols} values, found {n_values}"
            )
    try:
        return _loadtxt(lines)
    except ValueError:
        pass
    # locate the bad token with the same converter, one row and column at a time
    for line, number in zip(lines, numbers):
        try:
            _loadtxt([line])
        except ValueError:
            for c, token in enumerate(line.split(",")):
                try:
                    _loadtxt([line], usecols=[c])
                except ValueError as exc:
                    raise GridFormatError(
                        f"{path}:{number}: column {c}: not a number: {token.strip()!r}"
                    ) from exc
    raise GridFormatError(f"{path}: malformed numeric data")


def _parse_data_rows(
    lines: list[str], numbers: list[int], n_cols: int, n_rows: int, path: str
) -> np.ndarray:
    if len(lines) - 4 != n_rows:
        raise GridFormatError(
            f"{path}: header declares {n_rows} data rows, found {len(lines) - 4}"
        )
    data = parse_numeric_rows(lines[4:], n_cols, path, numbers[4:])
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        r, c = bad[0]
        token = lines[4 + r].split(",")[c]
        raise GridFormatError(
            f"{path}:{numbers[4 + r]}: column {c}: non-finite height {token.strip()!r}"
        )
    return data


def read_lines(path: str) -> tuple[list[str], list[int]]:
    """Non-blank lines of a text file (newline stripped) and their 1-based
    line numbers in the file, blank lines counted."""
    lines, numbers = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                lines.append(line.rstrip("\n"))
                numbers.append(number)
    return lines, numbers


def load_elevation_grid(path: str) -> ElevationGrid:
    """Parse a grid CSV file; raises GridFormatError naming the offending line."""
    lines, numbers = read_lines(path)
    n_cols, n_rows, cell, origin = _parse_header(lines, numbers, str(path))
    heights = _parse_data_rows(lines, numbers, n_cols, n_rows, str(path))
    return ElevationGrid(n_cols=n_cols, n_rows=n_rows, cell_size=cell, origin=origin, heights=heights)


def load_mask(path: str, grid: ElevationGrid) -> np.ndarray:
    """Parse a 0/1 mask CSV; must match the grid's shape and cell layout."""
    lines, numbers = read_lines(path)
    n_cols, n_rows, cell, origin = _parse_header(lines, numbers, str(path))
    if (n_cols, n_rows) != (grid.n_cols, grid.n_rows):
        raise GridFormatError(
            f"{path}: mask shape {n_rows}x{n_cols} does not match grid "
            f"{grid.n_rows}x{grid.n_cols}"
        )
    if (cell, origin) != (grid.cell_size, tuple(grid.origin)):
        raise GridFormatError(
            f"{path}: mask cellsize {cell!r} and origin {origin!r} do not match grid "
            f"cellsize {grid.cell_size!r} and origin {tuple(grid.origin)!r}"
        )
    data = _parse_data_rows(lines, numbers, n_cols, n_rows, str(path))
    if not np.all(np.isin(data, (0.0, 1.0))):
        raise GridFormatError(f"{path}: mask cells must be 0 or 1")
    return data.astype(bool)


def write_grid_csv(grid: ElevationGrid, path: str) -> None:
    """Write a grid back out in the CSV format load_elevation_grid reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols,{grid.n_cols}\n")
        fh.write(f"nrows,{grid.n_rows}\n")
        fh.write(f"cellsize,{grid.cell_size!r}\n")
        fh.write(f"origin,{grid.origin[0]!r},{grid.origin[1]!r}\n")
        for row in grid.heights:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
