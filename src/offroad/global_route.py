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

Windows.  ``route_in_window``, the solve of ``route`` and ``simulate``,
tables only the nodes a start -> goal route can use, cropped from the
whole grid's weights (``route_weights``, once per query).  Let c be the
least admissible hop cost per metre, from alpha and each plane's least and
largest admissible slope, shrunk by a relative 1e-9 against rounding; then
h(v, w) = c * octile distance(v, w) is a lower bound on the cost of any
route between v and w (the admissible heuristic of A*: Hart, Nilsson &
Raphael, IEEE Trans. SSC 1968).  Every node v of a path of cost at most B
has h(s, v) + h(v, g) <= B, so every such path lies in

    W_B = {v : h(s, v) + h(v, g) <= B}.

The window's table is the whole grid's, cropped to W_B's bounding box, with
every hop that has an end outside W_B inadmissible.  If the start's cost V
found there is at most B, it is the whole grid's cost, bit for bit: the
float Dijkstra value is the least float path sum, and the least path lies
in W_B.  The route is the whole grid's too.  At each node of it, an action
that ties for the minimum in the whole grid starts an optimal path, which
lies in W_B, so its candidate has the same value in the window; an action
that ties in the window ties in the whole grid, whose values are never
larger.  The tied sets are equal, so the first minimum picks the same action.

The first bound is B = 1.05 h(s, g).  A finite V > B makes B = V, and the
next round is final; an infinite V makes B 1.5 times larger.  A window
whose bounding box is the whole grid is solved as the whole grid, with
B = inf, so no round follows it, and only there is a start unreachable.
W_inf is the whole grid, so B = inf tables the whole grid from any start.
The start and goal are checked once, against the mask, before any table.
``converged`` is checked over every state of the window's table.  On the 36
route-batch queries of seeds 1-4 this took 426 ms in all, mask included,
and a solve of the whole grid's table 557 ms (in process, each query's
median of 7 calls, median of 6 such sums, x86_64 guest with 2 vCPUs).
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
    """Immutable transition/cost tables for one grid, mask, and weather, over
    a window's bounding box, which is the whole grid when the bound is inf."""

    grid: ElevationGrid
    goal: tuple[int, int]             # grid node
    hop_cost: np.ndarray = field(repr=False)  # (4, rows, cols); +inf = inadmissible
    offset: tuple[int, int]           # grid node at the table's [0, 0]
    bound: float                      # every path of cost <= bound lies in the table

    @property
    def shape(self) -> tuple[int, int]:
        return self.hop_cost.shape[1:]


@dataclass(frozen=True)
class RouteWeights:
    """What every table of one route query crops from the whole grid."""

    grid: ElevationGrid
    admissible: np.ndarray = field(repr=False)  # bool (4, n_rows, n_cols), hop_cost's layout
    alpha: tuple[float, float]                  # (alpha_m, alpha_d)
    per_metre: float                            # lower bound on any hop's cost per metre


@dataclass
class ValueFunction:
    """Per-state cost-to-goal plus the minimizing action at each state."""

    values: np.ndarray  # float, the problem's table shape; inf = unreachable / non-state
    policy: np.ndarray  # int action ids; 0 where no action applies
    converged: bool     # Bellman residual is exactly 0 on every state
    sweeps: int         # Bellman passes over the grid


@dataclass
class PlannedRoute:
    """Waypoint sequence start -> goal with distance and slope statistics."""

    waypoints: list[tuple[int, int]]
    total_cost: float
    total_distance: float
    mean_slope_deg: float
    max_slope_deg: float


def _both_ends(valid: np.ndarray) -> np.ndarray:
    """(4, rows, cols) bool: both ends of each hop are states of ``valid``."""
    ends = np.zeros((4,) + valid.shape, dtype=bool)
    for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS[:4]):
        src, dst = neighbor_slices(valid.shape, dr, dc)
        ends[k][src] = valid[src] & valid[dst]
    return ends


def route_weights(
    grid: ElevationGrid, mask: ObstacleMask, weather: WeatherCondition
) -> RouteWeights:
    """One query's whole-grid weights: a hop is admissible when both its ends
    are states and its slope is within the limit.  Raises ValueError when
    alpha cannot be solved or some admissible hop's cost is not positive."""
    admissible = _both_ends(~mask.blocked) & (grid.neighbor_slopes <= weather.slope_limit)
    if not admissible.any():
        raise ValueError("no admissible transition exists")
    # every admissible slope, plane by plane: gathered once for the mean and
    # for _per_metre, which reads each plane's piece
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
    alpha = tuple(np.linalg.solve(np.array([[mean_m, mean_d], [1.0, 1.0]]),
                                  np.array([1.0, 1.0])).tolist())
    per_metre = _per_metre(grid, np.split(slopes, np.cumsum(counts)[:-1]), *alpha)
    return RouteWeights(grid, admissible, alpha, per_metre)


def compute_scaling_factors(
    grid: ElevationGrid, mask: ObstacleMask, weather: WeatherCondition
) -> tuple[float, float]:
    """Solve the 2x2 system that balances slope and distance in the hop cost.

    With mean_m and mean_d the averages of slope and distance over all
    admissible hops, each counted once (a hop's two moves share both):

        [[mean_m, mean_d], [1, 1]] @ [alpha_m, alpha_d] = [1, 1]
    """
    return route_weights(grid, mask, weather).alpha


def _check_node(role: str, node: tuple[int, int], grid: ElevationGrid,
                blocked: np.ndarray) -> None:
    """Raise ValueError unless ``node`` is on the grid and not ``blocked``."""
    if not grid.in_bounds(*node):
        raise ValueError(f"{role} {node} is outside the grid")
    if blocked[node]:
        raise ValueError(f"{role} {node} is an obstacle node")


def _lower_bound(grid: ElevationGrid, per_metre: float, node: tuple[int, int],
                 rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(len(rows), len(cols)) lower bounds on the cost of any route between
    ``node`` and each node (rows[i], cols[j]): ``per_metre`` times the
    octile distance, the length of the shortest 8-connected walk."""
    dr = np.abs(rows - node[0])[:, None]
    dc = np.abs(cols - node[1])[None, :]
    diagonal = np.minimum(dr, dc)
    return per_metre * (grid.hop_runs[1] * diagonal
                        + grid.hop_runs[0] * (np.maximum(dr, dc) - diagonal))


def _per_metre(grid: ElevationGrid, slopes: list[np.ndarray], alpha_m: float,
               alpha_d: float) -> float:
    """A lower bound on every admissible hop's cost per metre, from
    ``slopes[k]``, the admissible slopes of plane k; raises ValueError when
    some admissible hop's cost is not positive.

    A plane's hop cost alpha_m * slope + alpha_d * run rises with the slope
    when alpha_m >= 0 and falls otherwise, in floats too, so its least cost
    is at the plane's least or largest admissible slope; no cost table is
    needed.  The bound is shrunk by a relative 1e-9 so that rounding cannot
    lift a lower bound above the float sum of a path's hop costs; where
    every admissible hop's cost overflows it is 0, whose windows are the
    whole grid."""
    per_metre = math.inf
    for hops, run in zip(slopes, grid.hop_runs):
        if hops.size:
            least = alpha_m * float(hops.min() if alpha_m >= 0 else hops.max()) + alpha_d * run
            if least <= 0:
                raise ValueError("non-positive hop cost; check alpha weights and cell size")
            per_metre = min(per_metre, least / run)
    per_metre *= 1.0 - 1e-9
    return per_metre if math.isfinite(per_metre) else 0.0


def _window(
    grid: ElevationGrid, per_metre: float, start: tuple[int, int], goal: tuple[int, int],
    bound: float,
) -> tuple[tuple[slice, slice], np.ndarray | None, float]:
    """(box, inside, bound) of W_B = {v : h(start, v) + h(v, goal) <= B}, h
    the lower bound of ``_lower_bound``, B the larger of ``bound`` and
    1.05 h(start, goal): its bounding box, which nodes of the box it holds,
    and B.  A window whose bounding box is the whole grid is the whole grid,
    with inside None and B = inf."""
    shape = (grid.n_rows, grid.n_cols)
    ends = np.array([start[0], goal[0]]), np.array([start[1], goal[1]])
    bound = max(bound, 1.05 * float(_lower_bound(grid, per_metre, start, *ends)[1, 1]))
    # an octile walk is at least cell_size long per row or column it
    # crosses, so W_B lies within `reach` rows and columns of start and goal
    # together; its exact test below runs on that box only
    scale = per_metre * grid.cell_size
    reach = bound / scale * (1.0 + 1e-12) if scale > 0 else math.inf
    axes = []
    for a, b, n in zip(start, goal, shape):
        index = np.arange(n)
        axes.append(index[np.abs(index - a) + np.abs(index - b) <= reach])
    rows, cols = axes

    def holds(r, c):
        return (_lower_bound(grid, per_metre, start, r, c)
                + _lower_bound(grid, per_metre, goal, r, c) <= bound)

    # the bounding box is the whole grid exactly when W_B holds a node on
    # each of the grid's four edges, so those 4n nodes decide it
    if (len(rows), len(cols)) == shape and all(
            holds(r, c).any() for r, c in ((rows[:1], cols), (rows[-1:], cols),
                                           (rows, cols[:1]), (rows, cols[-1:]))):
        return (slice(None), slice(None)), None, math.inf
    inside = holds(rows, cols)
    r = np.flatnonzero(inside.any(axis=1))
    c = np.flatnonzero(inside.any(axis=0))
    inside = inside[r[0]:r[-1] + 1, c[0]:c[-1] + 1]
    r0, c0 = int(rows[r[0]]), int(cols[c[0]])
    return (slice(r0, r0 + inside.shape[0]), slice(c0, c0 + inside.shape[1])), inside, bound


def build_dp_problem(
    weights: RouteWeights, start: tuple[int, int], goal: tuple[int, int], bound: float,
) -> DpProblem:
    """Assemble the hop cost table for the route solver from ``weights``.

    The table covers the bounding box of W_B (see ``_window``), and every
    hop with an end outside W_B is inadmissible; the problem's ``bound`` is
    B.  A bound of inf gives the whole grid.  The table is cropped from
    ``weights``, so each entry is the whole grid's entry for that hop.
    """
    grid = weights.grid
    box, inside, bound = _window(grid, weights.per_metre, start, goal, bound)
    admissible = weights.admissible[(slice(None),) + box]
    if inside is not None:
        # an admissible hop's ends are states; this also drops every hop
        # that leaves the box, whose CSR index scipy would not check
        admissible = admissible & _both_ends(inside)
    alpha_m, alpha_d = weights.alpha
    hop_cost = alpha_m * grid.neighbor_slopes[(slice(None),) + box]
    hop_cost += alpha_d * np.array(grid.hop_runs)[:, None, None]
    hop_cost[~admissible] = np.inf
    offset = (box[0].start or 0, box[1].start or 0)
    return DpProblem(grid=grid, goal=goal, hop_cost=hop_cost, offset=offset, bound=bound)


# nodes per block in _hop_graph: its node-major buffer stays in cache and
# takes 128 kB on every grid
_GRAPH_BLOCK = 4096


def _hop_graph(problem: DpProblem) -> csr_array:
    """CSR matrix over flat node indices of the admissible hops along offsets
    0-3, weighted by their cost.  Offset k + 4 is the same hop reversed at the
    same cost, so these edges, read as undirected, are the whole hop graph."""
    n_rows, n_cols = problem.shape
    n = n_rows * n_cols
    # offsets 3, 2, 1, 0 step to ascending flat indices, so every row comes
    # sorted; (4, n) views of the cost planes in that order
    weight = problem.hop_cost.reshape(4, n)[::-1]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.isfinite(weight).sum(axis=0, dtype=np.int32), out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    # each block of nodes is copied node-major into one reused buffer, whose
    # finite entries, in order, are the block's CSR entries
    m = min(n, _GRAPH_BLOCK)
    block = np.empty((m, 4))
    step = np.array([dr * n_cols + dc for dr, dc in NEIGHBOR_OFFSETS[3::-1]], dtype=np.int32)
    targets = np.arange(m, dtype=np.int32)[:, None] + step
    for lo in range(0, n, m):
        k = min(m, n - lo)
        np.copyto(block[:k], weight[:, lo:lo + k].T)
        finite = np.isfinite(block[:k]).ravel()
        out = slice(indptr[lo], indptr[lo + k])
        data[out] = block[:k].ravel()[finite]
        indices[out] = (targets[:k] + lo).ravel()[finite]
    return csr_array((data, indices, indptr), shape=(n, n))


def value_iteration(problem: DpProblem) -> ValueFunction:
    """Solve the Bellman equation exactly by label setting.

    One Dijkstra pass from the goal over the undirected hop graph gives every
    state's cost-to-goal; states left at +inf are unreachable.  A single
    Bellman pass over the 8 actions then picks the policy (a running first
    minimum, so ties keep the lowest action id) and checks that the residual
    is exactly 0 on every state, which sets ``converged``.
    """
    shape = problem.shape
    goal = (problem.goal[0] - problem.offset[0], problem.goal[1] - problem.offset[1])
    values = dijkstra(_hop_graph(problem), directed=False,
                      indices=goal[0] * shape[1] + goal[1]).reshape(shape)

    best = np.full(shape, np.inf)
    policy = np.zeros(shape, dtype=np.int8)
    # one candidate and one flag buffer serve all 8 actions, each viewed
    # contiguous in the shape of the action's slice
    candidates, flags = np.empty(values.size), np.empty(values.size, dtype=bool)
    for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
        src, dst = neighbor_slices(shape, dr, dc)
        # action k + 5 is the hop of plane k from the neighbor, reversed
        cost = problem.hop_cost[k][src] if k < 4 else problem.hop_cost[k - 4][dst]
        candidate = np.add(cost, values[dst], out=candidates[:cost.size].reshape(cost.shape))
        running = best[src]
        better = np.less(candidate, running, out=flags[:cost.size].reshape(cost.shape))
        # fmin, like `<`, passes over a NaN candidate
        np.fmin(running, candidate, out=running)
        policy[src][better] = k + 1
    # a state with a finite candidate is reachable, so the policy stays 0 on
    # exactly the unreachable ones, whose best stays inf; Stay makes the
    # goal's Bellman value 0
    policy[goal] = STAY
    best[goal] = 0.0
    converged = bool(np.array_equal(best, values))

    return ValueFunction(values=values, policy=policy, converged=converged, sweeps=1)


# (drow + 1, dcol + 1) of a move -> its index k in NEIGHBOR_OFFSETS
_MOVE_INDEX = np.zeros((3, 3), dtype=np.intp)
_MOVE_INDEX[tuple(np.array(NEIGHBOR_OFFSETS).T + 1)] = np.arange(len(NEIGHBOR_OFFSETS))


def _hops(grid: ElevationGrid, nodes: np.ndarray) -> tuple[list[float], list[float]]:
    """(distance from the first node after each hop, each hop's slope in
    degrees) of a walk between 8-neighbors, ``nodes`` its (m, 2) node array.
    A hop's run is its offset's, and its slope is read from
    ``grid.neighbor_slopes``: plane k at the hop's start for offset k < 4,
    plane k - 4 at its end for the reverse offsets."""
    step = np.diff(nodes, axis=0)
    if np.any(np.abs(step).max(axis=1, initial=0) != 1):
        raise ValueError("a route hop does not join 8-neighbors")
    k = _MOVE_INDEX[step[:, 0] + 1, step[:, 1] + 1]
    at = np.where((k < 4)[:, None], nodes[:-1], nodes[1:])
    slopes = grid.neighbor_slopes[k % 4, at[:, 0], at[:, 1]]
    # math's atan and degrees per hop: numpy's arctan may differ in the last bit
    degrees = [math.degrees(math.atan(slope)) for slope in slopes.tolist()]
    # cumsum adds in order, as a running Python sum does
    return np.cumsum(np.array(grid.hop_runs)[k % 4]).tolist(), degrees


def extract_route(
    vf: ValueFunction, problem: DpProblem, start: tuple[int, int]
) -> PlannedRoute | None:
    """Follow the policy from start to goal and summarize the hops; None
    when the goal is unreachable from start.  ``start`` must be a node of
    the table, as the start a window was built for is."""
    r0, c0 = problem.offset
    if not math.isfinite(vf.values[start[0] - r0, start[1] - c0]):
        return None

    waypoints = [start]
    node = start
    # a policy that reaches the goal takes fewer moves than there are nodes,
    # and stops there: the goal's action is STAY
    for _ in range(problem.shape[0] * problem.shape[1]):
        action = int(vf.policy[node[0] - r0, node[1] - c0])
        if action not in MOVES:
            break
        dr, dc = MOVES[action]
        node = (node[0] + dr, node[1] + dc)
        waypoints.append(node)
    if node != problem.goal:
        raise RuntimeError("policy did not reach the goal; value function is inconsistent")

    distances, slopes_deg = _hops(problem.grid, np.array(waypoints))
    return PlannedRoute(
        waypoints=waypoints,
        total_cost=float(vf.values[start[0] - r0, start[1] - c0]),
        total_distance=distances[-1] if distances else 0.0,
        mean_slope_deg=float(np.mean(slopes_deg)) if slopes_deg else 0.0,
        max_slope_deg=float(np.max(slopes_deg)) if slopes_deg else 0.0,
    )


def route_in_window(
    grid: ElevationGrid, mask: ObstacleMask, weather: WeatherCondition,
    start: tuple[int, int], goal: tuple[int, int],
) -> PlannedRoute | None:
    """The route that the whole grid's table gives from start to goal, solved
    on windows only (see the module docstring).

    The first window holds every path of cost up to 1.05 times the lower
    bound from start to goal.  A start cost within the window's bound is
    exact; a larger finite one becomes the next bound; an unreachable start
    grows the bound by 1.5, until the window is the whole grid.
    """
    # a blocked goal, then a blocked start, is named before any error of the
    # weights; no table checks them again
    for role, node in (("goal", goal), ("start", start)):
        _check_node(role, node, grid, mask.blocked)
    weights = route_weights(grid, mask, weather)
    bound = 0.0
    while True:
        problem = build_dp_problem(weights, start, goal, bound)
        vf = value_iteration(problem)
        cost = vf.values[start[0] - problem.offset[0], start[1] - problem.offset[1]]
        if cost <= problem.bound:
            return extract_route(vf, problem, start)
        # a lower bound that underflows to 0 leaves a bound of 0, which no factor grows
        bound = cost if math.isfinite(cost) else 1.5 * problem.bound or math.inf


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
    nodes = np.array(route.waypoints).reshape(-1, 2)
    rows, cols = nodes.T
    xs, ys = grid.node_position(rows, cols)
    distances, slopes_deg = _hops(grid, nodes)
    for idx, (r, c, x, y, z, hop_deg, cum) in enumerate(zip(
            rows.tolist(), cols.tolist(), xs.tolist(), ys.tolist(),
            grid.heights[rows, cols].tolist(), [0.0] + slopes_deg, [0.0] + distances)):
        lines.append(f"{idx},{r},{c},{x!r},{y!r},{z!r},{hop_deg!r},{cum!r}")
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
