"""Grid route planning: a deterministic shortest-path problem over
non-obstacle nodes under a weather slope bound, solved exactly by dynamic
programming.

Actions 1..8 move to the adjacent node East, Northeast, North, Northwest,
West, Southwest, South, Southeast; action 9 is Stay.  A move is admissible
only when the target node is in bounds, not an obstacle, and the hop slope
does not exceed the active weather's limit.  Hop cost is

    cost = alpha_m * slope + alpha_d * distance

with the scaling weights solved from the mean slope and mean distance over
all admissible moves.  Stay costs 0 at the goal and is inadmissible anywhere
else, which makes the goal absorbing with value 0.

Every hop cost is positive, so the fixed point of the Bellman equation

    V(s) = min_a [cost(s, a) + V(s + a)],    V(goal) = 0

is the shortest-path cost to the goal.  ``value_iteration`` reaches it in one
label-setting (Dijkstra) pass from the goal over the reversed admissible
graph instead of repeated Bellman sweeps (Bertsekas, *Dynamic Programming and
Optimal Control*, Vol. 1, label-setting methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from .terrain import (
    NEIGHBOR_OFFSETS,
    ElevationGrid,
    GridFormatError,
    ObstacleMask,
    WeatherCondition,
    neighbor_slices,
    parse_numeric_rows,
    read_lines,
)

# Action id -> (drow, dcol); row 0 is the northern edge so North is -1 row.
# Ids 1..8 follow terrain.NEIGHBOR_OFFSETS, so slope axis a - 1 is action a.
MOVES = {
    1: (0, 1),    # East
    2: (-1, 1),   # Northeast
    3: (-1, 0),   # North
    4: (-1, -1),  # Northwest
    5: (0, -1),   # West
    6: (1, -1),   # Southwest
    7: (1, 0),    # South
    8: (1, 1),    # Southeast
}
STAY = 9

UNREACHABLE = math.inf


class ScalingError(ValueError):
    """Raised when the cost-weight system is singular; pass weights manually."""


@dataclass(frozen=True)
class DpProblem:
    """Immutable transition/cost tables for one grid, mask, and weather."""

    grid: ElevationGrid
    goal: tuple[int, int]
    alpha_m: float
    alpha_d: float
    slope_limit: float
    valid: np.ndarray                 # bool (n_rows, n_cols); True = state
    move_admissible: dict[int, np.ndarray] = field(repr=False)
    move_cost: dict[int, np.ndarray] = field(repr=False)  # +inf where inadmissible

    @property
    def shape(self) -> tuple[int, int]:
        return self.valid.shape


@dataclass
class ValueFunction:
    """Per-state cost-to-goal plus the minimizing action at each state."""

    values: np.ndarray  # float (n_rows, n_cols); inf = unreachable / non-state
    policy: np.ndarray  # int action ids; 0 where no action applies
    converged: bool     # Bellman residual is exactly 0 on every reachable state
    sweeps: int         # Bellman passes over the grid

    def reachable(self, node: tuple[int, int]) -> bool:
        return math.isfinite(self.values[node])


@dataclass
class PlannedRoute:
    """Waypoint sequence start -> goal with distance and slope statistics."""

    waypoints: list[tuple[int, int]]
    total_cost: float
    total_distance: float
    mean_slope_deg: float
    max_slope_deg: float
    reachable: bool = True

    @classmethod
    def unreachable(cls) -> "PlannedRoute":
        return cls(waypoints=[], total_cost=UNREACHABLE, total_distance=float("nan"),
                   mean_slope_deg=float("nan"), max_slope_deg=float("nan"),
                   reachable=False)


def _hop_slopes_and_admissibility(
    grid: ElevationGrid, mask: ObstacleMask, slope_limit: float
):
    """Per-action hop slopes and admissibility over the whole grid.

    slopes[a - 1][r, c] is the hop slope from (r, c) along action a (NaN
    off-grid); admissible[a] additionally requires both endpoints to be valid
    states and the slope to respect the limit.
    """
    slopes = grid.neighbor_slopes
    valid = ~mask.blocked
    admissible: dict[int, np.ndarray] = {}
    for a, (dr, dc) in MOVES.items():
        src, dst = neighbor_slices(valid.shape, dr, dc)
        ok = np.zeros(valid.shape, dtype=bool)
        ok[src] = valid[src] & valid[dst] & (slopes[a - 1][src] <= slope_limit)
        admissible[a] = ok
    return slopes, admissible, valid


def _scaling_from_tables(
    slopes: np.ndarray, admissible: dict[int, np.ndarray], cell_size: float
) -> tuple[float, float]:
    counts = [int(admissible[a].sum()) for a in MOVES]
    if not any(counts):
        raise ValueError("no admissible transition exists")
    mean_m = float(np.concatenate([slopes[a - 1][admissible[a]] for a in MOVES]).mean())
    dists = [cell_size * math.hypot(dr, dc) for dr, dc in MOVES.values()]
    mean_d = float(np.repeat(dists, counts).mean())
    if abs(mean_m - mean_d) < 1e-12:
        raise ScalingError(
            f"mean slope equals mean distance ({mean_m}); the weight system is "
            "singular, supply alpha_m and alpha_d manually"
        )
    alpha = np.linalg.solve(np.array([[mean_m, mean_d], [1.0, 1.0]]), np.array([1.0, 1.0]))
    return float(alpha[0]), float(alpha[1])


def compute_scaling_factors(
    grid: ElevationGrid, mask: ObstacleMask, weather: WeatherCondition
) -> tuple[float, float]:
    """Solve the 2x2 system that balances slope and distance in the hop cost.

    With mean_m and mean_d the averages of slope and distance over all
    admissible moves:

        [[mean_m, mean_d], [1, 1]] @ [alpha_m, alpha_d] = [1, 1]
    """
    slopes, admissible, _ = _hop_slopes_and_admissibility(grid, mask, weather.slope_limit)
    return _scaling_from_tables(slopes, admissible, grid.cell_size)


def build_dp_problem(
    grid: ElevationGrid,
    mask: ObstacleMask,
    weather: WeatherCondition,
    goal: tuple[int, int],
    alpha: tuple[float, float] | None = None,
) -> DpProblem:
    """Assemble admissibility and cost tables for the route solver."""
    if not grid.in_bounds(*goal):
        raise ValueError(f"goal {goal} is outside the grid")
    if mask.blocked[goal]:
        raise ValueError(f"goal {goal} is an obstacle node")

    slopes, admissible, valid = _hop_slopes_and_admissibility(grid, mask, weather.slope_limit)
    if alpha is None:
        alpha_m, alpha_d = _scaling_from_tables(slopes, admissible, grid.cell_size)
    else:
        alpha_m, alpha_d = alpha

    costs: dict[int, np.ndarray] = {}
    for a, (dr, dc) in MOVES.items():
        dist = grid.cell_size * math.hypot(dr, dc)
        cost = np.full(grid.heights.shape, np.inf)
        ok = admissible[a]
        cost[ok] = alpha_m * slopes[a - 1][ok] + alpha_d * dist
        if np.any(cost[ok] <= 0):
            raise ValueError("non-positive hop cost; check alpha weights and cell size")
        costs[a] = cost

    return DpProblem(
        grid=grid, goal=goal, alpha_m=alpha_m, alpha_d=alpha_d,
        slope_limit=weather.slope_limit, valid=valid,
        move_admissible=admissible, move_cost=costs,
    )


def _reversed_graph(problem: DpProblem) -> csr_array:
    """CSR matrix of the reversed admissible graph over flat node indices.

    Row t lists every node s with an admissible hop s -> t, weighted by that
    hop's cost.  Built as (n_rows, n_cols, 8) weight/source tables whose
    finite entries are the edges, so no COO triplets are materialized.
    """
    shape = problem.shape
    n = shape[0] * shape[1]
    node = np.arange(n, dtype=np.int32).reshape(shape)
    weight = np.full(shape + (len(MOVES),), np.inf)
    source = np.zeros(shape + (len(MOVES),), dtype=np.int32)
    # sources in ascending flat order, so every row's indices come sorted
    for k, a in enumerate(sorted(MOVES, key=MOVES.get, reverse=True)):
        src, dst = neighbor_slices(shape, *MOVES[a])
        weight[dst + (k,)] = problem.move_cost[a][src]
        source[dst + (k,)] = node[src]
    edge = np.isfinite(weight)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(edge.sum(axis=2, dtype=np.int32), out=indptr[1:])
    data = weight[edge]
    del weight
    indices = source[edge]
    return csr_array((data, indices, indptr), shape=(n, n))


def value_iteration(problem: DpProblem) -> ValueFunction:
    """Solve the Bellman equation exactly by label setting.

    One Dijkstra pass from the goal over the reversed admissible graph gives
    every state's cost-to-goal; states left at +inf are unreachable.  A single
    Bellman pass over ``MOVES`` then picks the policy (ties keep the lowest
    action id) and checks that the residual is exactly 0 on every reachable
    state, which sets ``converged``.
    """
    shape = problem.shape
    goal_index = problem.goal[0] * shape[1] + problem.goal[1]
    values = dijkstra(_reversed_graph(problem), indices=goal_index).reshape(shape)

    policy = np.zeros(shape, dtype=np.int8)
    best = np.full(shape, np.inf)
    for a in sorted(MOVES):  # ascending ids: ties keep the lowest action
        src, dst = neighbor_slices(shape, *MOVES[a])
        candidate = problem.move_cost[a][src] + values[dst]
        better = candidate < best[src]
        policy[src][better] = a
        best[src][better] = candidate[better]
    reachable = np.isfinite(values)
    policy[~reachable] = 0
    policy[problem.goal] = STAY
    reachable[problem.goal] = False
    converged = bool(np.array_equal(best[reachable], values[reachable]))

    return ValueFunction(values=values, policy=policy, converged=converged, sweeps=1)


def _hop_run_and_slope(
    grid: ElevationGrid, a: tuple[int, int], b: tuple[int, int]
) -> tuple[float, float]:
    """Planar length and rise/run of the hop from node a to its 8-neighbor b,
    the slope read from ``grid.neighbor_slopes``."""
    dr, dc = b[0] - a[0], b[1] - a[1]
    slope = grid.neighbor_slopes[NEIGHBOR_OFFSETS.index((dr, dc))][a]
    return grid.cell_size * math.hypot(dr, dc), float(slope)


def extract_route(
    vf: ValueFunction, problem: DpProblem, start: tuple[int, int]
) -> PlannedRoute:
    """Follow the policy from start to goal and summarize the hops."""
    grid = problem.grid
    if not grid.in_bounds(*start):
        raise ValueError(f"start {start} is outside the grid")
    if not problem.valid[start]:
        raise ValueError(f"start {start} is an obstacle node")
    if not vf.reachable(start):
        return PlannedRoute.unreachable()

    waypoints = [start]
    node = start
    max_steps = problem.shape[0] * problem.shape[1] + 1
    for _ in range(max_steps):
        if node == problem.goal:
            break
        action = int(vf.policy[node])
        if action not in MOVES:
            return PlannedRoute.unreachable()
        dr, dc = MOVES[action]
        node = (node[0] + dr, node[1] + dc)
        waypoints.append(node)
    else:
        raise RuntimeError("policy did not reach the goal; value function is inconsistent")

    total_dist = 0.0
    slopes_deg = []
    for a, b in zip(waypoints, waypoints[1:]):
        run, slope = _hop_run_and_slope(grid, a, b)
        total_dist += run
        slopes_deg.append(math.degrees(math.atan(slope)))

    return PlannedRoute(
        waypoints=waypoints,
        total_cost=float(vf.values[start]),
        total_distance=total_dist,
        mean_slope_deg=float(np.mean(slopes_deg)) if slopes_deg else 0.0,
        max_slope_deg=float(np.max(slopes_deg)) if slopes_deg else 0.0,
    )


# ---------------------------------------------------------------------------
# Route CSV: idx,node_row,node_col,x_m,y_m,z_m,hop_slope_deg,cum_dist_m with a
# summary comment header.
# ---------------------------------------------------------------------------

ROUTE_COLUMNS = "idx,node_row,node_col,x_m,y_m,z_m,hop_slope_deg,cum_dist_m"


def write_route_csv(route: PlannedRoute, grid: ElevationGrid, path: str) -> None:
    if not route.reachable:
        raise ValueError("cannot write an unreachable route")
    lines = [
        f"# total_cost={route.total_cost!r},total_dist_m={route.total_distance!r},"
        f"mean_slope_deg={route.mean_slope_deg!r},max_slope_deg={route.max_slope_deg!r}",
        ROUTE_COLUMNS,
    ]
    cum = 0.0
    prev = None
    for idx, node in enumerate(route.waypoints):
        x, y = grid.node_position(*node)
        z = grid.node_height(*node)
        hop_deg = 0.0
        if prev is not None:
            run, slope = _hop_run_and_slope(grid, prev, node)
            cum += run
            hop_deg = math.degrees(math.atan(slope))
        lines.append(f"{idx},{node[0]},{node[1]},{x!r},{y!r},{z!r},{hop_deg!r},{cum!r}")
        prev = node
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


ROUTE_SUMMARY_KEYS = ("total_cost", "total_dist_m", "mean_slope_deg", "max_slope_deg")


def read_route_csv(path: str) -> PlannedRoute:
    """Parse a route CSV written by write_route_csv back into a PlannedRoute.

    Raises GridFormatError naming the file and line of the first defect.
    """
    lines, numbers = read_lines(path)
    if not lines or not lines[0].startswith("#"):
        raise GridFormatError(f"{path}: missing summary header")
    summary = {key.strip(): value for key, _, value in
               (item.partition("=") for item in lines[0][1:].split(","))}
    try:
        total_cost, total_dist, mean_slope, max_slope = (
            float(summary[key]) for key in ROUTE_SUMMARY_KEYS)
    except KeyError as exc:
        raise GridFormatError(f"{path}:{numbers[0]}: summary lacks {exc.args[0]}") from exc
    except ValueError as exc:
        raise GridFormatError(f"{path}:{numbers[0]}: summary value is not a number "
                              f"({exc})") from exc
    if len(lines) < 2 or lines[1].strip() != ROUTE_COLUMNS:
        where = f"{path}:{numbers[1]}" if len(lines) > 1 else f"{path}"
        raise GridFormatError(f"{where}: expected the column header {ROUTE_COLUMNS!r}")
    n_cols = len(ROUTE_COLUMNS.split(","))
    if len(lines) > 2:
        nodes = parse_numeric_rows(lines[2:], n_cols, path, numbers[2:])[:, 1:3]
    else:
        nodes = np.empty((0, 2))
    bad = np.flatnonzero(np.any(~np.isfinite(nodes) | (nodes != np.round(nodes)), axis=1))
    if len(bad):
        raise GridFormatError(f"{path}:{numbers[2 + bad[0]]}: node_row and node_col "
                              f"must be whole numbers")
    return PlannedRoute(
        waypoints=[(int(r), int(c)) for r, c in nodes.tolist()],
        total_cost=total_cost,
        total_distance=total_dist,
        mean_slope_deg=mean_slope,
        max_slope_deg=max_slope,
    )


def route_planar_waypoints(route: PlannedRoute, grid: ElevationGrid) -> list[tuple[float, float]]:
    """Planar (x, y) positions of the route's waypoints."""
    return [grid.node_position(*node) for node in route.waypoints]
