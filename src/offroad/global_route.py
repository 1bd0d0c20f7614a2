"""Grid route planning: a deterministic shortest-path problem over
non-obstacle nodes under a weather slope bound, solved exactly by dynamic
programming.

Actions 1..8 move to the adjacent node East, Northeast, North, Northwest,
West, Southwest, South, Southeast; action 9 is Stay.  A move is admissible
only when the target node is in bounds, not an obstacle, and the hop slope
does not exceed the active weather's limit.  Hop cost is

    cost = alpha_m * slope + alpha_d * distance

with the scaling weights solved from the mean slope and mean distance over
all admissible moves.  A hop's slope, admissibility and cost are the same in
both directions, so each hop is stored once: every table is one
(4, n_rows, n_cols) array laid out like ``ElevationGrid.neighbor_slopes``,
plane k for action k + 1, and action k + 5 from a node is the hop of plane k
at its neighbor.  The cost table holds +inf where a hop is not admissible.
Stay costs 0 at the goal and is inadmissible anywhere else, which makes the
goal absorbing with value 0.

Every hop cost is positive, so the fixed point of the Bellman equation

    V(s) = min_a [cost(s, a) + V(s + a)],    V(goal) = 0

is the shortest-path cost to the goal, +inf where no path exists; a route
query from such a start returns None.  ``value_iteration`` reaches it in
one label-setting (Dijkstra) pass from the goal over the undirected hop
graph instead of repeated Bellman sweeps (Bertsekas, *Dynamic Programming
and Optimal Control*, Vol. 1, label-setting methods).
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
    ObstacleMask,
    WeatherCondition,
    neighbor_slices,
    parse_numeric_rows,
    read_lines,
)

# Action id -> (drow, dcol); row 0 is the northern edge so North is -1 row.
# Action k + 1 is terrain.NEIGHBOR_OFFSETS[k]; table plane k is action k + 1
# and, read at the neighbor, action k + 5.
MOVES = dict(enumerate(NEIGHBOR_OFFSETS, start=1))
STAY = 9


@dataclass(frozen=True)
class DpProblem:
    """Immutable transition/cost tables for one grid, mask, and weather."""

    grid: ElevationGrid
    goal: tuple[int, int]
    valid: np.ndarray                 # bool (n_rows, n_cols); True = state
    hop_cost: np.ndarray = field(repr=False)  # (4, n_rows, n_cols); +inf = inadmissible

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


@dataclass
class PlannedRoute:
    """Waypoint sequence start -> goal with distance and slope statistics."""

    waypoints: list[tuple[int, int]]
    total_cost: float
    total_distance: float
    mean_slope_deg: float
    max_slope_deg: float


def _admissible(grid: ElevationGrid, valid: np.ndarray, slope_limit: float) -> np.ndarray:
    """(4, n_rows, n_cols) bool, laid out like ``grid.neighbor_slopes``: both
    ends of the hop are states and its slope is within the limit (an
    off-grid hop's NaN slope never is)."""
    ends = np.zeros(grid.neighbor_slopes.shape, dtype=bool)
    for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS[:4]):
        src, dst = neighbor_slices(valid.shape, dr, dc)
        ends[k][src] = valid[src] & valid[dst]
    ends &= grid.neighbor_slopes <= slope_limit
    return ends


def _scaling(grid: ElevationGrid, admissible: np.ndarray) -> tuple[float, float]:
    if not admissible.any():
        raise ValueError("no admissible transition exists")
    slopes = grid.neighbor_slopes[admissible]
    # the means' sums would overflow
    if 2 * slopes.size * float(slopes.max()) == math.inf:
        raise ValueError(f"grid hop slopes up to {slopes.max():.6g} sum past float64")
    if 2 * slopes.size * float(max(grid.hop_runs)) == math.inf:
        raise ValueError(f"grid hop runs up to {max(grid.hop_runs):.6g} m sum past float64")
    mean_m = float(slopes.mean())
    counts = admissible.sum(axis=(1, 2))
    mean_d = float(np.dot(counts, grid.hop_runs) / counts.sum())
    if abs(mean_m - mean_d) < 1e-12:
        raise ValueError(
            f"mean slope equals mean distance ({mean_m}); the weight system is "
            "singular: change the slope limit (--slope-limit or weather.slope_limit) "
            "or the grid's cell size"
        )
    alpha = np.linalg.solve(np.array([[mean_m, mean_d], [1.0, 1.0]]), np.array([1.0, 1.0]))
    return float(alpha[0]), float(alpha[1])


def compute_scaling_factors(
    grid: ElevationGrid, mask: ObstacleMask, weather: WeatherCondition
) -> tuple[float, float]:
    """Solve the 2x2 system that balances slope and distance in the hop cost.

    With mean_m and mean_d the averages of slope and distance over all
    admissible hops, each counted once (a hop's two moves share both):

        [[mean_m, mean_d], [1, 1]] @ [alpha_m, alpha_d] = [1, 1]
    """
    return _scaling(grid, _admissible(grid, ~mask.blocked, weather.slope_limit))


def build_dp_problem(
    grid: ElevationGrid,
    mask: ObstacleMask,
    weather: WeatherCondition,
    goal: tuple[int, int],
) -> DpProblem:
    """Assemble the hop cost table for the route solver."""
    if not grid.in_bounds(*goal):
        raise ValueError(f"goal {goal} is outside the grid")
    if mask.blocked[goal]:
        raise ValueError(f"goal {goal} is an obstacle node")

    valid = ~mask.blocked
    admissible = _admissible(grid, valid, weather.slope_limit)
    alpha_m, alpha_d = _scaling(grid, admissible)
    hop_cost = alpha_m * grid.neighbor_slopes
    hop_cost += alpha_d * np.array(grid.hop_runs)[:, None, None]
    hop_cost[~admissible] = np.inf
    if np.any(hop_cost <= 0):
        raise ValueError("non-positive hop cost; check alpha weights and cell size")
    return DpProblem(grid=grid, goal=goal, valid=valid, hop_cost=hop_cost)


def _hop_graph(problem: DpProblem) -> csr_array:
    """CSR matrix over flat node indices of the admissible hops along offsets
    0-3, weighted by their cost.  Offset k + 4 is the same hop reversed at the
    same cost, so these edges, read as undirected, are the whole hop graph."""
    n_rows, n_cols = problem.shape
    n = n_rows * n_cols
    # offsets 3, 2, 1, 0 step to ascending flat indices, so every row comes
    # sorted; a node-major view of the cost planes, not a copy
    weight = problem.hop_cost[3::-1].transpose(1, 2, 0)
    step = np.array([dr * n_cols + dc for dr, dc in NEIGHBOR_OFFSETS[3::-1]], dtype=np.int32)
    target = np.arange(n, dtype=np.int32).reshape(n_rows, n_cols, 1) + step
    edge = np.isfinite(weight)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(edge.sum(axis=2, dtype=np.int32), out=indptr[1:])
    return csr_array((weight[edge], target[edge], indptr), shape=(n, n))


def value_iteration(problem: DpProblem) -> ValueFunction:
    """Solve the Bellman equation exactly by label setting.

    One Dijkstra pass from the goal over the undirected hop graph gives every
    state's cost-to-goal; states left at +inf are unreachable.  A single
    Bellman pass over the 8 actions then picks the policy (a running first
    minimum, so ties keep the lowest action id) and checks that the residual
    is exactly 0 on every reachable state, which sets ``converged``.
    """
    shape = problem.shape
    goal_index = problem.goal[0] * shape[1] + problem.goal[1]
    values = dijkstra(_hop_graph(problem), directed=False,
                      indices=goal_index).reshape(shape)

    best = np.full(shape, np.inf)
    policy = np.zeros(shape, dtype=np.int8)
    for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        src, dst = neighbor_slices(shape, dr, dc)
        # action k + 5 is the hop of plane k from the neighbor, reversed
        cost = problem.hop_cost[k][src] if k < 4 else problem.hop_cost[k - 4][dst]
        candidate = cost + values[dst]
        better = candidate < best[src]
        np.copyto(best[src], candidate, where=better)
        np.copyto(policy[src], k + 1, where=better)
    # a state with a finite candidate is reachable, so the policy stays 0 on
    # exactly the unreachable ones
    reachable = np.isfinite(values)
    policy[problem.goal] = STAY
    reachable[problem.goal] = False
    converged = bool(np.array_equal(best[reachable], values[reachable]))

    return ValueFunction(values=values, policy=policy, converged=converged, sweeps=1)


def _hop_run_and_slope(
    grid: ElevationGrid, a: tuple[int, int], b: tuple[int, int]
) -> tuple[float, float]:
    """Planar length and rise/run of the hop from node a to its 8-neighbor b,
    the slope read from ``grid.neighbor_slopes`` (at b for a reverse offset)."""
    dr, dc = b[0] - a[0], b[1] - a[1]
    k = NEIGHBOR_OFFSETS.index((dr, dc))
    slope = grid.neighbor_slopes[k][a] if k < 4 else grid.neighbor_slopes[k - 4][b]
    return grid.hop_runs[k % 4], float(slope)


def extract_route(
    vf: ValueFunction, problem: DpProblem, start: tuple[int, int]
) -> PlannedRoute | None:
    """Follow the policy from start to goal and summarize the hops; None
    when the goal is unreachable from start."""
    grid = problem.grid
    if not grid.in_bounds(*start):
        raise ValueError(f"start {start} is outside the grid")
    if not problem.valid[start]:
        raise ValueError(f"start {start} is an obstacle node")
    if not math.isfinite(vf.values[start]):
        return None

    waypoints = [start]
    node = start
    # a policy that reaches the goal takes fewer moves than there are nodes,
    # and stops there: the goal's action is STAY
    for _ in range(problem.shape[0] * problem.shape[1]):
        action = int(vf.policy[node])
        if action not in MOVES:
            break
        dr, dc = MOVES[action]
        node = (node[0] + dr, node[1] + dc)
        waypoints.append(node)
    if node != problem.goal:
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

    Raises ValueError naming the file and line of the first defect.
    """
    lines, numbers = read_lines(path)
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing summary header")
    summary = {key.strip(): value for key, _, value in
               (item.partition("=") for item in lines[0][1:].split(","))}
    try:
        total_cost, total_dist, mean_slope, max_slope = (
            float(summary[key]) for key in ROUTE_SUMMARY_KEYS)
    except KeyError as exc:
        raise ValueError(f"{path}:{numbers[0]}: summary lacks {exc.args[0]}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}:{numbers[0]}: summary value is not a number "
                         f"({exc})") from exc
    if len(lines) < 2 or lines[1].strip() != ROUTE_COLUMNS:
        where = f"{path}:{numbers[1]}" if len(lines) > 1 else f"{path}"
        raise ValueError(f"{where}: expected the column header {ROUTE_COLUMNS!r}")
    n_cols = len(ROUTE_COLUMNS.split(","))
    nodes = parse_numeric_rows(lines[2:], n_cols, path, numbers[2:])[:, 1:3]
    bad = np.flatnonzero(np.any(~np.isfinite(nodes) | (nodes != np.round(nodes)), axis=1))
    if len(bad):
        raise ValueError(f"{path}:{numbers[2 + bad[0]]}: node_row and node_col "
                         f"must be whole numbers")
    return PlannedRoute(
        waypoints=[(int(r), int(c)) for r, c in nodes.tolist()],
        total_cost=total_cost,
        total_distance=total_dist,
        mean_slope_deg=mean_slope,
        max_slope_deg=max_slope,
    )
