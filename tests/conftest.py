import heapq
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from offroad import global_route as gr
from offroad.control import GainConfig
from offroad.terrain import (
    DRY_SLOPE_LIMIT,
    WET_SLOPE_LIMIT,
    ElevationGrid,
    SurfaceModel,
    WeatherCondition,
    build_obstacle_mask,
)
from offroad.vehicle import VehicleParams

DRY = WeatherCondition("dry", DRY_SLOPE_LIMIT)
WET = WeatherCondition("wet", WET_SLOPE_LIMIT)

# a car with the actuator limits off, and the case study's controller gains
FREE = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=math.inf, max_steer_rate=math.inf)
GAINS = GainConfig(k1=10.0, k2=20.0)


def grid_from_function(fn, n_cols=30, n_rows=30, cell=1.0, origin=(0.0, 0.0)):
    """Sample z = fn(x, y) onto an ElevationGrid (row 0 = north)."""
    xs = origin[0] + np.arange(n_cols) * cell
    ys = origin[1] + np.arange(n_rows) * cell
    X, Y = np.meshgrid(xs, ys)  # indexed [iy, ix], y ascending
    heights = np.flipud(fn(X, Y))
    return ElevationGrid(n_cols=n_cols, n_rows=n_rows, cell_size=cell,
                         origin=origin, heights=heights)


def flat_grid(height=0.0, n=10, cell=1.0, origin=(0.0, 0.0)):
    return grid_from_function(lambda x, y: np.full_like(x, float(height)),
                              n_cols=n, n_rows=n, cell=cell, origin=origin)


# A route query's window loop ends after a few tables; one that never
# accepts its cost builds them forever.  Every query in the tests fails once
# it builds more than this many, so such a loop fails the suite, not stalls it
MAX_TABLES_PER_QUERY = 16


@pytest.fixture(autouse=True)
def window_loop_ends(monkeypatch):
    solve, build = gr.route_in_window, gr.build_dp_problem
    built = []  # the tables of each query being solved

    def counted_solve(*args, **kwargs):
        built.append(0)
        try:
            return solve(*args, **kwargs)
        finally:
            built.pop()

    def counted_build(*args, **kwargs):
        if built:
            built[-1] += 1
            if built[-1] > MAX_TABLES_PER_QUERY:
                raise AssertionError(f"a route query built more than "
                                     f"{MAX_TABLES_PER_QUERY} tables")
        return build(*args, **kwargs)

    monkeypatch.setattr(gr, "route_in_window", counted_solve)
    monkeypatch.setattr(gr, "build_dp_problem", counted_build)


def whole_grid_table(grid, mask, weather, goal):
    """The route solver's table over the whole grid: a window with bound inf,
    the reference of the windowed solve."""
    return gr.build_dp_problem(gr.route_weights(grid, mask, weather), goal, goal, math.inf)


def write_grid_csv(grid, path):
    """Write a grid in the CSV format load_elevation_grid reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols,{grid.n_cols}\n")
        fh.write(f"nrows,{grid.n_rows}\n")
        fh.write(f"cellsize,{grid.cell_size!r}\n")
        fh.write(f"origin,{grid.origin[0]!r},{grid.origin[1]!r}\n")
        for row in grid.heights:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def time_at_arc_length(profile, s):
    """Earliest time at which profile.sample reaches arc length s.

    Inverts the sampled arc length by root finding, then steps ulp by ulp to
    the first float time whose sample is at least s, so the profile's own
    time parametrization is never used.
    """
    def gap(t):
        return profile.sample(np.array([t]))[0][0] - s

    if gap(0.0) >= 0.0:
        return 0.0
    if gap(profile.duration) < 0.0:
        # the end is reached only to rounding
        if gap(profile.duration) < -1e-9:
            raise ValueError(f"arc length {s} is past the profile's end")
        return profile.duration
    t = brentq(gap, 0.0, profile.duration, xtol=1e-14)
    while gap(t) < 0.0:
        t = np.nextafter(t, math.inf)
    while gap(np.nextafter(t, -math.inf)) >= 0.0:
        t = np.nextafter(t, -math.inf)
    return float(t)


def path_point(geometry, s):
    """The point of a PathGeometry at global arc length s."""
    (idx,), (local,) = geometry.locate(np.array([s]))
    return geometry.segments[idx].point_at(local)


def path_tangent(geometry, s):
    """The unit tangent of a PathGeometry at global arc length s."""
    (idx,), (local,) = geometry.locate(np.array([s]))
    return geometry.segments[idx].tangent_at(local)


@pytest.fixture
def flat_surface():
    return SurfaceModel(flat_grid(n=12))


@pytest.fixture
def incline_x_surface():
    # f = x, a 45 degree slope along x
    return SurfaceModel(grid_from_function(lambda x, y: x, n_cols=12, n_rows=12))


@pytest.fixture
def bowl_surface():
    # f = (x^2 + y^2) / 20, centered so queries around (1, 0) are interior
    return SurfaceModel(grid_from_function(
        lambda x, y: (x ** 2 + y ** 2) / 20.0,
        n_cols=25, n_rows=25, cell=1.0, origin=(-12.0, -12.0)))


# ---------------------------------------------------------------------------
# Independent hop and shortest-path oracles.  Deliberately share no code
# with the planner: they walk the grid with their own neighbor list and
# recompute slopes, costs, and admissibility from the heights.
# ---------------------------------------------------------------------------

EIGHT_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def in_grid(grid, node):
    """Whether node is on the grid; the oracles read only a grid's heights
    and cell_size."""
    n_rows, n_cols = grid.heights.shape
    return 0 <= node[0] < n_rows and 0 <= node[1] < n_cols


def oracle_hop(grid, a, b):
    """(slope, run) of the hop between 8-neighbors a and b: |dh| / run from
    the heights, in the float operations the planner's tables use, so a
    table entry equals it bit for bit."""
    dr, dc = b[0] - a[0], b[1] - a[1]
    run = grid.cell_size * math.sqrt(dr * dr + dc * dc)
    return abs(float(grid.heights[b]) - float(grid.heights[a])) / run, run


def oracle_hop_cost(grid, blocked, slope_limit, alpha_m, alpha_d, a, b):
    """alpha_m * slope + alpha_d * run of the hop a -> b, or +inf when it is
    not admissible: an end off the grid or blocked, or too steep."""
    if not (in_grid(grid, a) and in_grid(grid, b)) or blocked[a] or blocked[b]:
        return math.inf
    slope, run = oracle_hop(grid, a, b)
    if slope > slope_limit:
        return math.inf
    return alpha_m * slope + alpha_d * run


# The documented layout of the planner's (4, n_rows, n_cols) hop tables:
# plane k holds the hop from each node along FORWARD_OFFSETS[k] (East,
# Northeast, North, Northwest; row 0 is north), and the reverse hop is the
# same entry read at the neighbor.
FORWARD_OFFSETS = [(0, 1), (-1, 1), (-1, 0), (-1, -1)]


def table_entry(table, a, b):
    """The entry of a (4, n_rows, n_cols) hop table for the hop between the
    in-grid 8-neighbors a and b, read in either direction."""
    d = (b[0] - a[0], b[1] - a[1])
    if d in FORWARD_OFFSETS:
        return table[FORWARD_OFFSETS.index(d)][a]
    return table[FORWARD_OFFSETS.index((-d[0], -d[1]))][b]


def dijkstra_costs_to_goal(grid, blocked, slope_limit, goal, alpha_m, alpha_d):
    dist = {goal: 0.0}
    heap = [(0.0, goal)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        r, c = node
        for dr, dc in EIGHT_NEIGHBORS:
            # predecessor nodes: the hop goes neighbor -> node
            nr, nc = r - dr, c - dc
            cost = oracle_hop_cost(grid, blocked, slope_limit, alpha_m, alpha_d,
                                   (nr, nc), node)
            if math.isinf(cost):
                continue
            nd = d + cost
            if nd < dist.get((nr, nc), math.inf):
                dist[(nr, nc)] = nd
                heapq.heappush(heap, (nd, (nr, nc)))
    return dist


def random_problem(rng, n=12, cell=5.0, obstacle_p=0.15, rough=1.0):
    heights = rng.normal(scale=rough, size=(n, n)).cumsum(axis=0) * 0.1
    grid = grid_from_function(lambda x, y: np.zeros_like(x), n_cols=n, n_rows=n, cell=cell)
    grid.heights[:] = heights
    water = rng.random((n, n)) < obstacle_p
    goal = (int(rng.integers(0, n)), int(rng.integers(0, n)))
    water[goal] = False
    mask = build_obstacle_mask(grid, water_mask=water, steep_limit=10.0)
    return grid, mask, goal


# ---------------------------------------------------------------------------
# Frame oracle.  vehicle.frame_and_motion builds the surface frame from the
# normal with square roots only; these build the same convention from the
# roll and pitch angles with numpy vectors and trigonometry, so the kernel's
# frame, rates and yaw are checked against an independent formulation.
# test_terrain checks the oracle itself against finite differences.
# ---------------------------------------------------------------------------

def normal_with_gradient(jet):
    """Unit upward normal n = g/|g|, g = (-f_x, -f_y, 1), plus its spatial
    derivatives dn/dx and dn/dy, from a surface jet (f, f_x, f_y, f_xx,
    f_yy, f_xy)."""
    _, f_x, f_y, f_xx, f_yy, f_xy = jet
    g = np.array([-f_x, -f_y, 1.0])
    gx = np.array([-f_xx, -f_xy, 0.0])
    gy = np.array([-f_xy, -f_yy, 0.0])
    norm = math.sqrt(f_x * f_x + f_y * f_y + 1.0)
    n = g / norm
    dn_dx = gx / norm - g * (g @ gx) / norm**3
    dn_dy = gy / norm - g * (g @ gy) / norm**3
    return n, dn_dx, dn_dy


def euler_angles(n):
    """Roll asin(-n_y) and pitch atan2(n_x, n_z) of a unit upward normal."""
    if abs(math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) - 1.0) > 1e-6:
        raise ValueError("normal must be a unit vector")
    if n[2] <= 0:
        raise ValueError("normal must point upward (positive z)")
    return math.asin(-n[1]), math.atan2(n[0], n[2])


def rotation_from_angles(phi, theta):
    """Rows i_t, j_t, k_t of the surface frame in ground coordinates: a roll
    about x after a pitch about y; row 3 is the surface normal."""
    cp, sp = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([
        [ct, 0.0, -st],
        [sp * st, cp, sp * ct],
        [cp * st, -sp, cp * ct],
    ])


def euler_rates(n, n_dot):
    """Roll and pitch rates from the unit normal and its time derivative, by
    the chain rule through euler_angles."""
    xz = n[0] * n[0] + n[2] * n[2]
    return -n_dot[1] / math.sqrt(xz), (n[2] * n_dot[0] - n[0] * n_dot[2]) / xz


def oracle_frame(surf, x, y, psi):
    """(i_b, j_b, k_b, i_t, j_t) at a pose, from the angles."""
    n, _, _ = normal_with_gradient(surf.eval(x, y))
    i_t, j_t, k_t = rotation_from_angles(*euler_angles(n))
    c, s = math.cos(psi), math.sin(psi)
    return c * i_t + s * j_t, -s * i_t + c * j_t, k_t, i_t, j_t


def oracle_surface_rate(surf, x, y, x_dot, y_dot):
    """Rotation rate of the surface frame while the contact point moves at
    (x_dot, y_dot) through (x, y)."""
    n, dn_dx, dn_dy = normal_with_gradient(surf.eval(x, y))
    phi, theta = euler_angles(n)
    phi_dot, theta_dot = euler_rates(n, dn_dx * x_dot + dn_dy * y_dot)
    i_t, j_t, k_t = rotation_from_angles(phi, theta)
    return phi_dot * i_t + theta_dot * math.cos(phi) * j_t - theta_dot * math.sin(phi) * k_t
