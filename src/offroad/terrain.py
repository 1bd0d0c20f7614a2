"""Gridded terrain: elevation rasters, a twice-differentiable surface model,
inter-node slopes, and traversability masks.

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
from scipy.linalg import solve, solve_banded

# Slope limits for the two supported weather regimes (rise/run).
DRY_SLOPE_LIMIT = math.tan(math.radians(6.90))
WET_SLOPE_LIMIT = math.tan(math.radians(2.77))
# the slope limit of each weather kind, unless it is overridden
SLOPE_LIMITS = {"dry": DRY_SLOPE_LIMIT, "wet": WET_SLOPE_LIMIT}

# 8-connected neighborhood offsets as (drow, dcol).
NEIGHBOR_OFFSETS = (
    (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1),
)


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
        if not (self.cell_size > 0 and np.isfinite([self.cell_size, *self.origin]).all()):
            raise ValueError(f"cell_size must be positive and finite and origin finite, got "
                             f"{self.cell_size} and {self.origin}")
        cell = float(self.cell_size)
        for name, start, n in (("x", float(self.origin[0]), self.n_cols),
                               ("y", float(self.origin[1]), self.n_rows)):
            # the last node in Python floats first: inf past float64, without a warning
            nodes = start + np.arange(n) * cell if math.isfinite(start + (n - 1) * cell) else None
            if nodes is None or not (nodes[1:] > nodes[:-1]).all():
                raise ValueError(f"grid {name} nodes {start!r} + k * {cell!r} m for k < {n} "
                                 "overflow float64 or do not increase")
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

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the node positions."""
        xs, ys = self.x_axis, self.y_axis
        return float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])

    def node_position(self, row, col):
        """Planar (x, y) of a node, or of each node of row and col arrays."""
        return (
            self.origin[0] + col * self.cell_size,
            self.origin[1] + (self.n_rows - 1 - row) * self.cell_size,
        )

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.n_rows and 0 <= col < self.n_cols

    @cached_property
    def hop_runs(self) -> tuple[float, float, float, float]:
        """Planar length of a hop along each forward offset
        NEIGHBOR_OFFSETS[:4]; offset k + 4 has the length of offset k."""
        return tuple(self.cell_size * math.hypot(dr, dc) for dr, dc in NEIGHBOR_OFFSETS[:4])

    @cached_property
    def neighbor_slopes(self) -> np.ndarray:
        """Slope of each hop along the forward offsets NEIGHBOR_OFFSETS[:4]
        for every node, inf past float64; NaN where the neighbor is off-grid.

        Shape (4, n_rows, n_cols), plane k for offset k.  Offset k + 4 is
        offset k reversed, with the same slope, so each hop is stored once:
        the slope along offset k + 4 from a node is entry k at that neighbor.
        Built once per grid, so the mask and the route tables share it.  The
        result is read-only, and so are the heights from then on: a later
        change would leave it stale.
        """
        h = self.heights
        h.flags.writeable = False
        out = np.full((4, self.n_rows, self.n_cols), np.nan)
        for k, ((dr, dc), run) in enumerate(zip(NEIGHBOR_OFFSETS[:4], self.hop_runs)):
            src, dst = neighbor_slices(h.shape, dr, dc)
            rise = np.abs(h[dst] - h[src])
            steep = rise >= run * 2.0 ** 1023   # numpy warns where the quotient overflows
            np.divide(rise, run, out=out[(k,) + src], where=~steep)
            out[(k,) + src][steep] = [r / run for r in rise[steep].tolist()]   # inf, no warning
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class WeatherCondition:
    """Driving regime plus the slope bound it imposes (rise/run)."""

    kind: str  # a key of SLOPE_LIMITS
    slope_limit: float

    def __post_init__(self):
        if self.kind not in SLOPE_LIMITS:
            raise ValueError(f"unknown weather kind {self.kind!r}")
        if not self.slope_limit > 0:
            raise ValueError("slope_limit must be positive")


@dataclass(frozen=True)
class ObstacleMask:
    """Per-node blocked flags."""

    blocked: np.ndarray     # bool, shape (n_rows, n_cols)


class SurfaceModel:
    """Smooth interpolated surface z = f(x, y) over an elevation grid.

    A tensor-product not-a-knot cubic spline interpolant: twice continuously
    differentiable in the grid interior, which the vertical-acceleration
    constraint requires, and it reproduces polynomial surfaces up to cubics
    exactly.  Grids narrower than 4 nodes per axis fall back to the highest
    spline degree the axis supports.

    Construction solves the x-pass only: one banded system along x for all
    grid rows at once (``_not_a_knot_coeffs``).  The y-pass is solved per
    x-cell column, on the first query that lands in the column, because a
    car crosses few of them: the column's x-spline coefficients are splined
    along y into the bicubic coefficients of its cells, bit for bit the ones
    scipy's ``CubicSpline`` gives.  Records are kept for the built columns
    only, so the memory grows with the columns a run crosses, not with the
    grid.  Each cell also keeps the constant multiples its jet needs, so a
    query returns f and all partials to second order by Horner evaluation on
    the cell's flat 28-float record (see ``_bicubic_jet``).

    Not safe to share between threads: queries build columns and cache the
    last cell's record, so each concurrent run needs its own surface.
    """

    def __init__(self, grid: ElevationGrid):
        # coefficients reach ~2**11 spread / cell**6, sums ~2**11 max(spread, cell) * cell
        # and slopes ~2**11 spread / cell, whose squares the car's frame adds
        low, high = float(grid.heights.min()), float(grid.heights.max())
        e = math.log2(grid.cell_size)
        s = math.log2(max(high - low, grid.cell_size)) + 11
        if s + max(e, -6 * e) >= 1024:
            raise ValueError(f"grid heights {low!r} to {high!r} on {grid.cell_size!r} m cells "
                             "overflow float64 in the surface spline")
        if s - e >= 511:
            raise ValueError(f"grid heights {low!r} to {high!r} on {grid.cell_size!r} m cells "
                             "give surface slopes whose squares overflow float64")
        # log2 bounds on the surface's slopes and curvatures
        self._slope_log2, self._curvature_log2 = s - e, s - 2 * e
        self.grid = grid
        xs = grid.x_axis
        ys = grid.y_axis
        for axis in (xs, ys):
            # scipy's dense solve of a 3-node axis warns that the system is
            # ill-conditioned for spacings of about 2**-50 m and less or 2**47 m
            # and more
            dx = np.diff(axis)
            if len(axis) == 3 and not (2.0 ** -49 <= dx.min() and dx.max() <= 2.0 ** 46):
                raise ValueError(f"grid spacing {grid.cell_size!r} m on a 3-node axis is outside "
                                 "the 2**-49 to 2**46 m the surface spline solves")
        # values[i, j] = height at (xs[i], ys[j]); row 0 of the raster is north.
        values = np.flipud(grid.heights).T
        # c shape (4, nx-1, ny): the x-splines through every grid row
        self._cx = _not_a_knot_coeffs(xs, values)
        # {i: the records of built x-cell column i}, one flat jet record per cell
        self._columns = {}
        self._xs = xs
        self._ys = ys
        self._x_nodes = xs.tolist()
        self._y_nodes = ys.tolist()
        self._x_min, x_max, self._y_min, y_max = grid.bounds
        # a query this close outside the extent, such as an integration
        # stage that rounding puts past an edge node, is evaluated on the
        # edge cell
        slack = 1e-9 * grid.cell_size
        self._x_lo, self._x_hi = self._x_min - slack, x_max + slack
        self._y_lo, self._y_hi = self._y_min - slack, y_max + slack
        self._inv_cell = 1.0 / grid.cell_size
        self._nx_last = grid.n_cols - 2
        self._ny_last = grid.n_rows - 2
        self._ci = -1
        self._cj = -1
        self._cell = None

    def check_speed(self, speed: float) -> None:
        """Raise ValueError when a car at up to ``speed`` m/s lifts vertical
        speeds (slope x speed) whose squares, or vertical accelerations
        (curvature x speed**2), overflow float64 (see ``surface_lift``)."""
        v = math.log2(speed) if speed > 0 else -math.inf
        if self._slope_log2 + v >= 511 or self._curvature_log2 + 2 * v >= 1021:
            low, high = float(self.grid.heights.min()), float(self.grid.heights.max())
            raise ValueError(f"a speed of {speed!r} m/s over grid heights {low!r} to {high!r} "
                             f"on {self.grid.cell_size!r} m cells overflows float64 in the "
                             "surface lift")

    def _column(self, i: int) -> np.ndarray:
        """The (ny-1, 28) records of x-cell column i; its x-coefficients are
        splined along y on the first call."""
        records = self._columns.get(i)
        if records is None:
            # c shape (4, ny-1, 4): c[3 - q, j, 3 - p] multiplies u**p v**q
            c = _not_a_knot_coeffs(self._ys, self._cx[:, i, :].T)
            records = self._columns[i] = np.empty((c.shape[1], 28))
            # coeffs[j, p, q] multiplies (x - xs[i])**p * (y - ys[j])**q: a
            # view of the first 16 floats of each cell's record
            coeffs = records[:, :16].reshape(-1, 4, 4)
            coeffs[...] = np.transpose(c[::-1, :, ::-1], (1, 2, 0))
            records[:, 16:20] = 2.0 * coeffs[:, :, 2]
            records[:, 20:24] = 3.0 * coeffs[:, :, 3]
            records[:, 24:28] = 6.0 * coeffs[:, :, 3]
        return records

    def eval(self, x, y):
        """Evaluate the interpolant: returns the jet (f, f_x, f_y, f_xx, f_yy, f_xy).

        Floats give Python floats.  Arrays of one shape give arrays of that
        shape; OutOfBoundsError names the first point outside the grid.
        A point within 1e-9 cell sizes outside the extent is on the grid.
        """
        if isinstance(x, (float, int)) and isinstance(y, (float, int)):
            if not (self._x_lo <= x <= self._x_hi and self._y_lo <= y <= self._y_hi):
                raise self._out_of_bounds(x, y)
            # axes are uniform, so the cell index is direct arithmetic; both
            # offsets are > -1 on the grid, and int() truncates toward 0
            i = int((x - self._x_min) * self._inv_cell)
            j = int((y - self._y_min) * self._inv_cell)
            i = self._nx_last if i > self._nx_last else i
            j = self._ny_last if j > self._ny_last else j
            # a moving car queries one cell many times in a row: keep the
            # last cell's record as floats
            if i != self._ci or j != self._cj:
                self._ci = i
                self._cj = j
                self._cell = self._column(i)[j].tolist()
            return _bicubic_jet(self._cell, x - self._x_nodes[i], y - self._y_nodes[j])
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        outside = ~((self._x_lo <= x) & (x <= self._x_hi)
                    & (self._y_lo <= y) & (y <= self._y_hi))
        if outside.any():
            k = np.argmax(outside)
            raise self._out_of_bounds(float(x.flat[k]), float(y.flat[k]))
        i = np.clip(((x - self._x_min) * self._inv_cell).astype(int), 0, self._nx_last)
        j = np.clip(((y - self._y_min) * self._inv_cell).astype(int), 0, self._ny_last)
        columns = np.unique(i)
        records = np.empty((len(columns), self._ny_last + 1, 28))
        for k, col in enumerate(columns.tolist()):
            records[k] = self._column(col)
        # (28, ...) so that c[k] is the array of record entry k
        c = np.moveaxis(records[np.searchsorted(columns, i), j], -1, 0)
        return _bicubic_jet(c, x - self._xs[i], y - self._ys[j])

    def _out_of_bounds(self, x: float, y: float) -> OutOfBoundsError:
        x_min, x_max, y_min, y_max = self.grid.bounds
        return OutOfBoundsError(
            f"query ({x:.3f}, {y:.3f}) outside grid extent "
            f"x=[{x_min}, {x_max}], y=[{y_min}, {y_max}]"
        )


def _not_a_knot_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients c[k, i, ...] of the not-a-knot cubic spline through
    (x, y) along axis 0: on [x[i], x[i+1]] the spline is
    sum_k c[k, i, ...] (t - x[i])**(3 - k).

    x is strictly increasing with n >= 2 nodes; y has shape (n, ...).  The
    arithmetic and the LAPACK calls are those of scipy 1.17's
    ``CubicSpline(x, y, bc_type="not-a-knot").c``, so the result matches it
    bit for bit: node slopes from a tridiagonal system for n >= 4, from the
    parabola through the nodes for n = 3, and the chord's slope for n = 2.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    b = np.empty((n,) + y.shape[1:])
    if n == 3:
        A = np.zeros((3, 3))
        A[0, 0] = A[0, 1] = A[2, 1] = A[2, 2] = 1
        A[1, 0] = dx[1]
        A[1, 1] = 2 * (dx[0] + dx[1])
        A[1, 2] = dx[0]
        b[0] = 2 * slope[0]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[2] = 2 * slope[1]
        s = solve(A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
                  check_finite=False)
    else:
        # banded storage: row 0 the upper diagonal, 1 the diagonal, 2 the lower
        A = np.zeros((3, n))
        if n == 2:
            # both ends take the chord's slope
            A[1] = 1
            b[:] = slope[0]
        else:
            A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
            A[0, 2:] = dx[:-1]
            A[-1, :-2] = dx[1:]
            b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
            # not-a-knot: the third derivative is continuous at x[1] and x[-2]
            d = x[2] - x[0]
            A[1, 0] = dx[1]
            A[0, 1] = d
            b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
            d = x[-1] - x[-3]
            A[1, -1] = dx[-2]
            A[-1, -2] = d
            b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
    s = s.reshape(b.shape)
    # the cubic Hermite segments through the node values and slopes
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _bicubic_jet(c, u, v) -> tuple:
    """(f, f_x, f_y, f_xx, f_yy, f_xy) of sum c_pq u**p v**q by Horner's rule.

    ``c`` is a cell's flat 28-entry record: the 16 coefficients c_pq in
    row-major (p, q) order, then 2 c_p2, 3 c_p3 and 6 c_p3 for p = 0..3.
    Its entries are floats, or arrays that broadcast with the floats or
    arrays u and v.
    """
    (c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33,
     d02, d12, d22, d32, t03, t13, t23, t33, s03, s13, s23, s33) = c
    # per power of u: the polynomial in v (g), its first v-derivative (h)
    # and its second (k)
    g0 = c00 + v * (c01 + v * (c02 + v * c03))
    g1 = c10 + v * (c11 + v * (c12 + v * c13))
    g2 = c20 + v * (c21 + v * (c22 + v * c23))
    g3 = c30 + v * (c31 + v * (c32 + v * c33))
    h0 = c01 + v * (d02 + v * t03)
    h1 = c11 + v * (d12 + v * t13)
    h2 = c21 + v * (d22 + v * t23)
    h3 = c31 + v * (d32 + v * t33)
    k0 = d02 + v * s03
    k1 = d12 + v * s13
    k2 = d22 + v * s23
    k3 = d32 + v * s33
    f = g0 + u * (g1 + u * (g2 + u * g3))
    f_x = g1 + u * (2.0 * g2 + u * (3.0 * g3))
    f_y = h0 + u * (h1 + u * (h2 + u * h3))
    f_xx = 2.0 * g2 + u * (6.0 * g3)
    f_yy = k0 + u * (k1 + u * (k2 + u * k3))
    f_xy = h1 + u * (2.0 * h2 + u * (3.0 * h3))
    return f, f_x, f_y, f_xx, f_yy, f_xy


def surface_lift(
    jet: tuple, x_dot: float, y_dot: float, x_ddot: float, y_ddot: float
) -> tuple[float, float]:
    """Vertical velocity and acceleration implied by staying on the surface:

        z_dot  = f_x x_dot + f_y y_dot
        z_ddot = f_x x_ddot + f_xx x_dot^2 + f_yy y_dot^2
                 + f_y y_ddot + 2 f_xy x_dot y_dot

    ``jet`` is SurfaceModel.eval at the planar position, or any sequence
    that starts with it (vehicle.frame_and_motion's tuple does).
    """
    f_x, f_y, f_xx, f_yy, f_xy = jet[1], jet[2], jet[3], jet[4], jet[5]
    z_dot = f_x * x_dot + f_y * y_dot
    # f_xx * x_dot ** 2, not f_xx * x_dot * x_dot: the two round differently,
    # and written outputs (trajectory.csv az) are kept bit for bit
    z_ddot = (f_x * x_ddot + f_xx * x_dot ** 2 + f_yy * y_dot ** 2
              + f_y * y_ddot + 2.0 * f_xy * x_dot * y_dot)
    return z_dot, z_ddot


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
    steep_limit: float,
    water_mask: np.ndarray | None = None,
    foliage_mask: np.ndarray | None = None,
) -> ObstacleMask:
    """Mark nodes that cannot be part of a route.

    A node is blocked when it has water, foliage or a building, or when every
    hop to an 8-neighbor exceeds ``steep_limit`` (the node cannot be entered
    or left at all under that bound).
    """
    shape = (grid.n_rows, grid.n_cols)
    slopes = grid.neighbor_slopes
    # each node's least hop slope: fmin skips the NaN of off-grid hops, and
    # every node of a grid of at least 2x2 has an in-grid neighbor
    least = np.fmin.reduce(slopes)
    for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS[:4]):
        src, dst = neighbor_slices(shape, dr, dc)
        np.fmin(least[dst], slopes[k][src], out=least[dst])  # offset k + 4 from dst
    blocked = least > steep_limit
    for name, mask in (("foliage", foliage_mask), ("water", water_mask)):
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != shape:
                raise ValueError(f"{name} mask shape {mask.shape} != grid shape {shape}")
            blocked |= mask
    return ObstacleMask(blocked=blocked)


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
        raise ValueError(f"{path}: expected a 4-line header, got {len(lines)} lines")

    def field(idx: int, name: str, n_values: int, whole: bool = False) -> list:
        where = f"{path}:{numbers[idx]}"
        parts = [p.strip() for p in lines[idx].split(",")]
        if len(parts) != n_values + 1 or parts[0].lower() != name:
            raise ValueError(f"{where}: expected '{name},...' header line")
        values = []
        for token in parts[1:]:
            try:
                value = float(token)
            except ValueError as exc:
                raise ValueError(f"{where}: {name}: not a number: {token!r}") from exc
            if whole and not value.is_integer():
                raise ValueError(f"{where}: {name}: not a whole number: {token!r}")
            values.append(int(value) if whole else value)
        return values

    (n_cols,) = field(0, "ncols", 1, whole=True)
    (n_rows,) = field(1, "nrows", 1, whole=True)
    (cell,) = field(2, "cellsize", 1)
    origin = tuple(field(3, "origin", 2))
    if n_cols < 2 or n_rows < 2:
        raise ValueError(f"{path}: grid must be at least 2x2, got {n_rows}x{n_cols}")
    if not (cell > 0 and math.isfinite(cell)):
        raise ValueError(f"{path}:{numbers[2]}: cellsize must be positive and finite, got {cell}")
    if not all(map(math.isfinite, origin)):
        raise ValueError(f"{path}:{numbers[3]}: origin must be finite, got {origin}")
    return n_cols, n_rows, cell, origin


def _loadtxt(lines: list[str], **kwargs) -> np.ndarray:
    # comments=None: the default '#' would silently cut a data line short
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, **kwargs)


def parse_numeric_rows(
    lines: list[str], n_cols: int, path: str, numbers: list[int]
) -> np.ndarray:
    """Parse comma-separated numeric rows into a (len(lines), n_cols) float array.

    Tokens use numpy's float syntax: what ``float()`` accepts except ``_``
    digit separators and non-ASCII digits.  ``numbers[r]`` is the file line
    number of ``lines[r]``; a ValueError names the offending line and,
    for a token that is not a number, its 0-based column.  No lines give a
    (0, n_cols) array.
    """
    if not lines:
        return np.empty((0, n_cols))
    for line, number in zip(lines, numbers):
        n_values = line.count(",") + 1
        if n_values != n_cols:
            raise ValueError(f"{path}:{number}: expected {n_cols} values, found {n_values}")
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
                    raise ValueError(
                        f"{path}:{number}: column {c}: not a number: {token.strip()!r}"
                    ) from exc
    raise ValueError(f"{path}: malformed numeric data")


def _data_rows(
    lines: list[str], numbers: list[int], n_rows: int, path: str
) -> tuple[list[str], list[int]]:
    """The lines after the 4-line header and their line numbers; ValueError
    unless there are ``n_rows`` of them."""
    if len(lines) - 4 != n_rows:
        raise ValueError(f"{path}: header declares {n_rows} data rows, found {len(lines) - 4}")
    return lines[4:], numbers[4:]


def _reject_cells(
    bad: np.ndarray, rows: list[str], numbers: list[int], path: str, problem: str
) -> None:
    """ValueError naming the line, 0-based column and token of the first
    cell, in file order, where ``bad`` is True."""
    hits = np.argwhere(bad)
    if len(hits):
        r, c = hits[0]
        token = rows[r].split(",")[c].strip()
        raise ValueError(f"{path}:{numbers[r]}: column {c}: {problem} {token!r}")


def _bare_bits(rows: list[str], n_cols: int) -> np.ndarray | None:
    """The cells of rows that are each ``n_cols`` bare ``0``/``1`` tokens
    joined by commas, decoded from their bytes; None for any other text.

    Such rows are what the float parser would read as 0.0 and 1.0, so the
    result is the one it gives, without turning every cell into a float.
    """
    raw = ("\n".join(rows) + "\n").encode()
    if len(raw) != 2 * n_cols * len(rows):
        return None
    chars = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), 2 * n_cols)
    # a byte below '0' wraps round past 1
    bits = chars[:, ::2] - np.uint8(ord("0"))
    # each cell is followed by a comma, the row's last by its newline
    ends = np.frombuffer(b"," * (n_cols - 1) + b"\n", dtype=np.uint8)
    if not ((bits <= 1).all() and (chars[:, 1::2] == ends).all()):
        return None
    return bits == 1


def read_lines(path: str) -> tuple[list[str], list[int]]:
    """Non-blank lines of a text file (newline stripped) and their 1-based
    line numbers in the file, blank lines counted.  ValueError if the
    file is not UTF-8 text."""
    lines, numbers = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if line.strip():
                    lines.append(line.rstrip("\n"))
                    numbers.append(number)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    return lines, numbers


def load_elevation_grid(path: str) -> ElevationGrid:
    """Parse a grid CSV file; raises ValueError naming the offending line."""
    lines, numbers = read_lines(path)
    n_cols, n_rows, cell, origin = _parse_header(lines, numbers, str(path))
    rows, row_numbers = _data_rows(lines, numbers, n_rows, str(path))
    heights = parse_numeric_rows(rows, n_cols, str(path), row_numbers)
    _reject_cells(~np.isfinite(heights), rows, row_numbers, str(path), "non-finite height")
    # Python floats, so an overflowing range is inf without a numpy warning
    low, high = float(heights.min()), float(heights.max())
    if not math.isfinite(high - low):
        raise ValueError(f"{path}: height range {low!r} to {high!r} overflows float64")
    try:
        return ElevationGrid(n_cols=n_cols, n_rows=n_rows, cell_size=cell, origin=origin,
                             heights=heights)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_mask(path: str, grid: ElevationGrid) -> np.ndarray:
    """Parse a 0/1 mask CSV; must match the grid's shape and cell layout.

    Rows of bare ``0``/``1`` cells are decoded from their bytes; any other
    spelling goes through ``parse_numeric_rows`` with the same result.
    """
    lines, numbers = read_lines(path)
    n_cols, n_rows, cell, origin = _parse_header(lines, numbers, str(path))
    if (n_cols, n_rows) != (grid.n_cols, grid.n_rows):
        raise ValueError(
            f"{path}: mask shape {n_rows}x{n_cols} does not match grid "
            f"{grid.n_rows}x{grid.n_cols}"
        )
    if (cell, origin) != (grid.cell_size, tuple(grid.origin)):
        raise ValueError(
            f"{path}: mask cellsize {cell!r} and origin {origin!r} do not match grid "
            f"cellsize {grid.cell_size!r} and origin {tuple(grid.origin)!r}"
        )
    rows, row_numbers = _data_rows(lines, numbers, n_rows, str(path))
    bits = _bare_bits(rows, n_cols)
    if bits is not None:
        return bits
    data = parse_numeric_rows(rows, n_cols, str(path), row_numbers)
    # NaN equals neither, so a non-finite cell is reported here too
    _reject_cells((data != 0) & (data != 1), rows, row_numbers, str(path),
                  "mask cell must be 0 or 1, got")
    return data == 1

