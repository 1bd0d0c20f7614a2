"""Independent route oracle: a Dijkstra search that shares no code with
`offroad`.

It rebuilds everything from the documented definitions (README and the
`global_route` module docstring):

- hop slope = |h_b - h_a| / run, with run = cell * sqrt(dr^2 + dc^2) between
  8-adjacent nodes;
- a node is steep (blocked) when every in-grid hop from it exceeds the steep
  limit, and water or foliage nodes are blocked;
- a hop is admissible when both ends are unblocked and its slope is at most
  the active weather limit;
- hop cost = alpha_m * slope + alpha_d * run, where mean_m and mean_d are the
  mean slope and run over all admissible directed hops and
  alpha_m * mean_m + alpha_d * mean_d = 1, alpha_m + alpha_d = 1.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

DRY_LIMIT = math.tan(math.radians(6.90))
WET_LIMIT = math.tan(math.radians(2.77))
LIMITS = {"dry": DRY_LIMIT, "wet": WET_LIMIT}

# (drow, dcol) for the 8 neighbours; the order only matters for speed
OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def read_raster(path: str):
    """(values, cell, origin) from a grid or mask CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        head = [next(fh).strip().split(",") for _ in range(4)]
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    n_cols, n_rows = int(head[0][1]), int(head[1][1])
    if values.shape != (n_rows, n_cols):
        raise ValueError(f"{path}: shape {values.shape} != ({n_rows}, {n_cols})")
    return values, float(head[2][1]), (float(head[3][1]), float(head[3][2]))


def hop_slope(heights: np.ndarray, cell: float, a, b) -> float:
    (ra, ca), (rb, cb) = a, b
    run = cell * math.sqrt((ra - rb) ** 2 + (ca - cb) ** 2)
    return abs(float(heights[rb, cb]) - float(heights[ra, ca])) / run


def _shifted_pairs(shape, dr: int, dc: int):
    """Slices selecting every node that has a neighbour at (dr, dc), and that
    neighbour."""
    n_rows, n_cols = shape
    src = (slice(max(0, -dr), n_rows - max(0, dr)), slice(max(0, -dc), n_cols - max(0, dc)))
    dst = (slice(max(0, dr), n_rows + min(0, dr)), slice(max(0, dc), n_cols + min(0, dc)))
    return src, dst


def hop_slopes(heights: np.ndarray, cell: float) -> dict:
    """{(dr, dc): slope array}, NaN where the neighbour is off-grid."""
    out = {}
    for dr, dc in OFFSETS:
        src, dst = _shifted_pairs(heights.shape, dr, dc)
        s = np.full(heights.shape, np.nan)
        s[src] = np.abs(heights[dst] - heights[src]) / (cell * math.sqrt(dr * dr + dc * dc))
        out[(dr, dc)] = s
    return out


def steep_nodes(slopes: dict, steep_limit: float) -> np.ndarray:
    """Nodes whose every in-grid hop is steeper than the limit."""
    stacked = np.stack(list(slopes.values()))
    gentlest = np.nanmin(np.where(np.isnan(stacked), np.inf, stacked), axis=0)
    return gentlest > steep_limit


class RouteOracle:
    """Blocked nodes, cost weights and costs-to-goal for one site and limit."""

    def __init__(self, heights: np.ndarray, cell: float, obstacles: np.ndarray,
                 slope_limit: float):
        self.heights = np.asarray(heights, dtype=float)
        self.cell = float(cell)
        self.slope_limit = slope_limit
        self.slopes = hop_slopes(self.heights, self.cell)
        # `offroad route` bounds steepness by the active weather limit
        steep = steep_nodes(self.slopes, slope_limit)
        self.blocked = np.asarray(obstacles, dtype=bool) | steep
        free = ~self.blocked
        self.admissible = {}
        for (dr, dc), s in self.slopes.items():
            src, dst = _shifted_pairs(self.heights.shape, dr, dc)
            ok = np.zeros(self.heights.shape, dtype=bool)
            with np.errstate(invalid="ignore"):
                ok[src] = free[src] & free[dst] & (s[src] <= slope_limit)
            self.admissible[(dr, dc)] = ok
        n_hops = sum(int(ok.sum()) for ok in self.admissible.values())
        if n_hops == 0:
            raise ValueError("no admissible hop")
        mean_m = sum(float(self.slopes[k][ok].sum()) for k, ok in self.admissible.items()) / n_hops
        mean_d = sum(self.cell * math.sqrt(dr * dr + dc * dc) * int(ok.sum())
                     for (dr, dc), ok in self.admissible.items()) / n_hops
        self.alpha_m = (1.0 - mean_d) / (mean_m - mean_d)
        self.alpha_d = 1.0 - self.alpha_m

    @classmethod
    def from_files(cls, grid: str, masks, weather: str) -> "RouteOracle":
        heights, cell, _ = read_raster(grid)
        obstacles = np.zeros(heights.shape, dtype=bool)
        for path in masks:
            if path:
                obstacles |= read_raster(path)[0] != 0
        return cls(heights, cell, obstacles, LIMITS[weather])

    def hop_cost(self, a, b) -> float:
        (ra, ca), (rb, cb) = a, b
        run = self.cell * math.sqrt((ra - rb) ** 2 + (ca - cb) ** 2)
        return self.alpha_m * hop_slope(self.heights, self.cell, a, b) + self.alpha_d * run

    def costs_to_goal(self, goal) -> np.ndarray:
        """Dijkstra from the goal over the (symmetric) admissible hops;
        +inf where the goal cannot be reached."""
        n_rows, n_cols = self.heights.shape
        size = n_rows * n_cols
        moves = []
        for (dr, dc), ok in self.admissible.items():
            cost = self.alpha_m * self.slopes[(dr, dc)] + self.alpha_d * (
                self.cell * math.sqrt(dr * dr + dc * dc))
            moves.append((dr * n_cols + dc, ok.ravel().tolist(), cost.ravel().tolist()))
        dist = [math.inf] * size
        g = goal[0] * n_cols + goal[1]
        if self.blocked[goal]:
            return np.full(self.heights.shape, math.inf)
        dist[g] = 0.0
        heap = [(0.0, g)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            # the hop v -> u costs the same as u -> v, so scan u's own hops
            for off, ok, cost in moves:
                if ok[u]:
                    v = u + off
                    nd = d + cost[u]
                    if nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        return np.array(dist).reshape(n_rows, n_cols)
