"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and writes only plain input
files (grid and mask CSVs in the README format, and run configs); the program
under test sees nothing else.  The same seed always writes the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .oracle import WET_LIMIT, hop_slopes, steep_nodes

CELL_M = 5.0
ROUTE_SIZE = 200        # nodes per side of the route-batch terrains
ROUTE_TERRAINS = 4      # distinct terrains per route-batch run
PLAN_SIZE = 250         # nodes per side of the plan-and-track terrain
RELIEF_M = 2.5          # standard deviation of the rolling terrain heights
MAZE_SIZE = 41


@dataclass(frozen=True)
class RouteQuery:
    """One `offroad route` call and what the oracle needs to judge it."""

    name: str
    grid: str
    water: str | None
    foliage: str | None
    start: tuple[int, int]
    goal: tuple[int, int]
    weather: str

    def argv(self, out: str) -> list[str]:
        argv = ["route", "--grid", self.grid]
        if self.water:
            argv += ["--water", self.water]
        if self.foliage:
            argv += ["--foliage", self.foliage]
        return argv + ["--start", f"{self.start[0]},{self.start[1]}",
                       "--goal", f"{self.goal[0]},{self.goal[1]}",
                       "--weather", self.weather, "--out", out]


# ---------------------------------------------------------------------------
# Raster synthesis and CSV writing
# ---------------------------------------------------------------------------

def fractal_field(rng: np.random.Generator, n: int, beta: float = 1.6) -> np.ndarray:
    """Zero-mean, unit-variance spectral noise with amplitude ~ 1/f**beta:
    smooth rolling relief with detail at every scale."""
    k = np.fft.fftfreq(n)
    kk = np.hypot(k[:, None], k[None, :])
    kk[0, 0] = 1.0
    amp = kk ** -beta
    amp[0, 0] = 0.0
    phase = rng.uniform(0.0, 2.0 * np.pi, (n, n))
    z = np.real(np.fft.ifft2(amp * np.exp(1j * phase)))
    return (z - z.mean()) / z.std()


def _header(n_rows: int, n_cols: int, cell: float, origin: tuple[float, float]) -> str:
    return (f"ncols,{n_cols}\nnrows,{n_rows}\ncellsize,{cell!r}\n"
            f"origin,{origin[0]!r},{origin[1]!r}\n")


def write_raster(path: str, values: np.ndarray, cell: float,
                 origin: tuple[float, float], mask: bool = False) -> None:
    """Write a grid (row 0 = north) or a 0/1 mask CSV."""
    n_rows, n_cols = values.shape
    fmt = (lambda v: "1" if v else "0") if mask else (lambda v: repr(float(v)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(n_rows, n_cols, cell, origin))
        for row in values:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def rolling_terrain(rng: np.random.Generator, n: int):
    """Heights plus water (low-lying ponds) and foliage (scattered clumps)."""
    heights = RELIEF_M * fractal_field(rng, n)
    water = fractal_field(rng, n, beta=2.0) > 2.0
    foliage = (fractal_field(rng, n, beta=1.0) > 2.3) & ~water
    return heights, water, foliage


def _clear_node(rng: np.random.Generator, blocked: np.ndarray,
                rows: tuple[int, int], cols: tuple[int, int]) -> tuple[int, int]:
    """A random unblocked node in the window [rows) x [cols), widened one
    cell at a time while the window holds none."""
    n_rows, n_cols = blocked.shape
    (r0, r1), (c0, c1) = rows, cols
    while True:
        r0, c0 = max(r0, 0), max(c0, 0)
        r1, c1 = min(r1, n_rows), min(c1, n_cols)
        free = np.argwhere(~blocked[r0:r1, c0:c1])
        if len(free):
            r, c = free[rng.integers(len(free))]
            return int(r0 + r), int(c0 + c)
        r0, r1, c0, c1 = r0 - 1, r1 + 1, c0 - 1, c1 + 1


def write_rolling_site(rng: np.random.Generator, directory: str, stem: str, n: int):
    """Write <stem>.csv, <stem>_water.csv and <stem>_foliage.csv; return the
    three paths and the nodes a query may not use: water, foliage, and nodes
    steep under the stricter (wet) limit."""
    heights, water, foliage = rolling_terrain(rng, n)
    origin = (float(rng.integers(0, 100)) * CELL_M, float(rng.integers(0, 100)) * CELL_M)
    paths = tuple(os.path.join(directory, f"{stem}{suffix}.csv")
                  for suffix in ("", "_water", "_foliage"))
    write_raster(paths[0], heights, CELL_M, origin)
    write_raster(paths[1], water, CELL_M, origin, mask=True)
    write_raster(paths[2], foliage, CELL_M, origin, mask=True)
    return paths, water | foliage | steep_nodes(hop_slopes(heights, CELL_M), WET_LIMIT)


def serpentine_maze(n: int = MAZE_SIZE) -> np.ndarray:
    """Water walls on every odd row, with the gap alternating between the east
    and west ends: one corridor that winds through every even row."""
    walls = np.zeros((n, n), dtype=bool)
    for r in range(1, n - 1, 2):
        walls[r, :] = True
        walls[r, n - 1 if (r // 2) % 2 == 0 else 0] = False
    return walls


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def route_batch(seed: int, directory: str, size: int = ROUTE_SIZE,
                terrains: int = ROUTE_TERRAINS) -> list[RouteQuery]:
    """Dry and wet queries on seeded rolling terrains, then one query through
    the serpentine maze, whose optimal route is longer than the solver's
    sweep cap."""
    rng = np.random.default_rng([seed, 1])
    queries = []
    corner = (size // 10, size // 4)
    far = (size - size // 4, size - size // 10)
    for t in range(terrains):
        (grid, water, foliage), blocked = write_rolling_site(rng, directory, f"terrain{t}", size)
        for weather in ("dry", "wet"):
            goal = _clear_node(rng, blocked, corner, corner)
            start = _clear_node(rng, blocked, far, far)
            queries.append(RouteQuery(f"terrain{t}-{weather}", grid, water, foliage,
                                      start, goal, weather))
    maze = os.path.join(directory, "maze.csv")
    maze_water = os.path.join(directory, "maze_water.csv")
    walls = serpentine_maze()
    write_raster(maze, np.zeros(walls.shape), CELL_M, (0.0, 0.0))
    write_raster(maze_water, walls, CELL_M, (0.0, 0.0), mask=True)
    n = walls.shape[0]
    queries.append(RouteQuery("maze-dry", maze, maze_water, None,
                              (n - 1, n - 1), (0, 0), "dry"))
    return queries


CASE_STUDY_CFG = """\
[terrain]
grid = case.csv

[path]
waypoints = 885.0,418.5; 892.5,411.0; 885.0,403.5
turn_radius = 4.0
nominal_speed = 2.0
max_yaw_rate = 1.0
initial_speed = 2.0

[vehicle]
max_steer = none
max_steer_rate = none

[controller]
k1 = 10.0
k2 = 20.0

[simulation]
dt = 0.01
"""


def track_case_study(seed: int, directory: str) -> str:
    """The paper's three-waypoint turn on a gently rolling 41x41 grid with
    2 m cells, actuator limits off.  It is the fixed case study, so the seed
    does not change it."""
    del seed
    n, cell, origin = 41, 2.0, (850.0, 370.0)
    xs = origin[0] + np.arange(n) * cell
    ys = origin[1] + np.arange(n) * cell
    X, Y = np.meshgrid(xs, ys)
    heights = np.flipud(0.05 * np.sin(X / 30.0) * np.cos(Y / 25.0))
    write_raster(os.path.join(directory, "case.csv"), heights, cell, origin)
    cfg = os.path.join(directory, "case.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CASE_STUDY_CFG)
    return cfg


PLAN_CFG = """\
[terrain]
grid = {stem}.csv
water_mask = {stem}_water.csv
foliage_mask = {stem}_foliage.csv

[weather]
kind = dry

[route]
start = {start}
goal = {goal}

[path]
turn_radius = 1.0
nominal_speed = 2.0
max_yaw_rate = 1.0
accel = 1.0
decel = 1.0
initial_speed = 2.0

[vehicle]
wheelbase = 2.0
mass = 1000.0
gravity = 9.81
max_steer = 0.6
max_steer_rate = 2.0
min_ctrl_speed = 0.05

[controller]
k1 = 10.0
k2 = 20.0

[simulation]
dt = 0.01
fn_policy = halt
"""

PLAN_OFFSET = (-8, 16)   # goal minus start, in cells: a route between the
                         # 8 move directions, so it zigzags with many corners
PLAN_SCENARIOS = 3   # distinct terrains per plan-and-track run


@dataclass(frozen=True)
class PlanScenario:
    name: str
    config: str
    grid: str


def plan_and_track(seed: int, directory: str, size: int = PLAN_SIZE,
                   scenarios: int = PLAN_SCENARIOS) -> list[PlanScenario]:
    """Route planning on seeded rolling terrains, each followed by tracking
    the routed line+arc path under the shipped default actuator limits
    (those of run.cfg.example).  An 8-connected route turns by at most 135
    degrees, and a 1 m radius needs 1 * tan(67.5 deg) = 2.41 m of each 5 m
    leg, so every fillet fits."""
    rng = np.random.default_rng([seed, 3])
    out = []
    mid = size // 2
    for k in range(scenarios):
        stem = f"plan{k}"
        (grid, _, _), blocked = write_rolling_site(rng, directory, stem, size)
        start = _clear_node(rng, blocked, (mid - 3, mid + 3), (mid - 3, mid + 3))
        aim = (start[0] + PLAN_OFFSET[0], start[1] + PLAN_OFFSET[1])
        goal = _clear_node(rng, blocked, (aim[0] - 2, aim[0] + 3), (aim[1] - 2, aim[1] + 3))
        cfg = os.path.join(directory, f"{stem}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(PLAN_CFG.format(stem=stem, start=f"{start[0]},{start[1]}",
                                     goal=f"{goal[0]},{goal[1]}"))
        out.append(PlanScenario(stem, cfg, grid))
    return out
