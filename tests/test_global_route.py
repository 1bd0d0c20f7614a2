import dataclasses
import heapq
import math
import tracemalloc

import numpy as np
import pytest

from offroad.global_route import (
    STAY,
    PlannedRoute,
    compute_scaling_factors,
    extract_route,
    read_route_csv,
    value_iteration,
    write_route_csv,
)
from offroad import global_route as gr
from offroad.cli import EXIT_OK, main, plan_route
from offroad.terrain import (
    DRY_SLOPE_LIMIT,
    ElevationGrid,
    WeatherCondition,
    build_obstacle_mask,
    load_elevation_grid,
    load_mask,
)
from perfbench import inputs

from conftest import (
    DRY,
    EIGHT_NEIGHBORS,
    FORWARD_OFFSETS,
    WET,
    dijkstra_costs_to_goal,
    flat_grid,
    grid_from_function,
    in_grid,
    oracle_hop,
    oracle_hop_cost,
    random_problem,
    table_entry,
    whole_grid_table,
    write_grid_csv,
)


# ---------------------------------------------------------------------------
# Scaling factors
# ---------------------------------------------------------------------------

def test_scaling_flat_terrain():
    grid = flat_grid(n=5, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, DRY)
    # mean slope 0, mean distance d: alpha_d = 1/d, alpha_m = 1 - alpha_d
    dists = []
    for dr, dc in [(0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1)]:
        count = (5 - abs(dr)) * (5 - abs(dc))
        dists.extend([10.0 * math.hypot(dr, dc)] * count)
    mean_d = np.mean(dists)
    assert alpha_d == pytest.approx(1.0 / mean_d, abs=1e-12)
    assert alpha_m == pytest.approx(1.0 - 1.0 / mean_d, abs=1e-12)


def test_scaling_solves_the_two_by_two_system():
    rng = np.random.default_rng(9)
    grid, mask, _ = random_problem(rng, n=10, cell=12.0)
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, DRY)
    # oracle: rebuild the averages by brute-force enumeration
    slopes, dists = [], []
    for r in range(10):
        for c in range(10):
            if mask.blocked[r, c]:
                continue
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    nr, nc = r + dr, c + dc
                    if not (0 <= nr < 10 and 0 <= nc < 10) or mask.blocked[nr, nc]:
                        continue
                    run = 12.0 * math.hypot(dr, dc)
                    s = abs(grid.heights[nr, nc] - grid.heights[r, c]) / run
                    if s <= DRY.slope_limit:
                        slopes.append(s)
                        dists.append(run)
    mean_m, mean_d = np.mean(slopes), np.mean(dists)
    assert abs(mean_m * alpha_m + mean_d * alpha_d - 1.0) < 1e-12
    assert abs(alpha_m + alpha_d - 1.0) < 1e-12


def test_scaling_singular_system():
    # 2x2 grid, cell 1, north row raised 2 m: x-hops have slope 0/dist 1,
    # y-hops slope 2/dist 1, diagonals slope sqrt(2)/dist sqrt(2), so both
    # means are (8 + 4*sqrt(2))/12 and the weight system is singular
    grid = flat_grid(n=2, cell=1.0)
    grid.heights[0, :] = 2.0
    mask = build_obstacle_mask(grid, steep_limit=100.0)
    with pytest.raises(ValueError, match="change the slope limit"):
        compute_scaling_factors(grid, mask, WeatherCondition("dry", 100.0))


def test_scaling_example_by_hand():
    # mean_m = 0 (flat), mean_d = 10: alpha_d = 0.1, alpha_m = 0.9
    grid = flat_grid(n=2, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    # drop diagonals from the average by blocking nothing; a 2x2 grid has
    # 4 orthogonal hops of 10 and 4 diagonal hops of 10*sqrt(2) per direction
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, DRY)
    mean_d = (8 * 10.0 + 4 * 10.0 * math.sqrt(2)) / 12
    assert alpha_d == pytest.approx(1.0 / mean_d)
    assert alpha_m == pytest.approx(1.0 - alpha_d)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def test_flat_interior_node_has_eight_moves():
    grid = flat_grid(n=3, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (0, 0))
    alpha = compute_scaling_factors(grid, mask, DRY)
    assert problem.hop_cost.shape == (4, 3, 3)

    def hops(node):
        neighbors = [(node[0] + dr, node[1] + dc) for dr, dc in EIGHT_NEIGHBORS]
        return {b: table_entry(problem.hop_cost, node, b)
                for b in neighbors if in_grid(grid, b)}

    center = hops((1, 1))
    assert len(center) == 8 and all(np.isfinite(list(center.values())))
    assert all(cost == oracle_hop_cost(grid, mask.blocked, DRY.slope_limit, *alpha, (1, 1), b)
               for b, cost in center.items())
    corner = (0, 0)
    admissible = [b for b, cost in hops(corner).items() if np.isfinite(cost)]
    assert len(admissible) == 3
    # of its 5 off-grid moves, the table holds the forward ones, as +inf
    off_grid = [k for k, (dr, dc) in enumerate(FORWARD_OFFSETS)
                if not in_grid(grid, (corner[0] + dr, corner[1] + dc))]
    assert len(off_grid) == 3
    assert all(np.isinf(problem.hop_cost[k][corner]) for k in off_grid)


def test_steep_hop_inadmissible_under_both_weathers():
    # east neighbor 2 m higher over 10 m: slope 0.2 exceeds both limits
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[1, 2] = 2.0
    mask = build_obstacle_mask(grid, steep_limit=10.0)
    wet = whole_grid_table(grid, mask, WET, (0, 0))
    dry = whole_grid_table(grid, mask, DRY, (0, 0))
    east = 1
    assert 0.2 > WET.slope_limit
    assert not np.isfinite(wet.hop_cost[east - 1][1, 1])
    assert 0.2 > DRY.slope_limit
    assert not np.isfinite(dry.hop_cost[east - 1][1, 1])
    # a gentler rise passes dry but not wet
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[1, 2] = 0.8   # slope 0.08
    mask = build_obstacle_mask(grid, steep_limit=10.0)
    wet = whole_grid_table(grid, mask, WET, (0, 0))
    dry = whole_grid_table(grid, mask, DRY, (0, 0))
    assert np.isfinite(dry.hop_cost[east - 1][1, 1])
    assert not np.isfinite(wet.hop_cost[east - 1][1, 1])


def test_a_hop_at_the_slope_limit_is_admissible_and_its_node_not_steep():
    # 1 m over 10 m cells: each orthogonal hop's slope is the float 0.1 and
    # each diagonal one's is steeper, so at a limit of 0.1 the corners' and
    # the centre's least hop slope equals the limit
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[:] = [[2.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 2.0]]
    limit = 0.1
    assert 1.0 / 10.0 == limit
    assert not build_obstacle_mask(grid, limit).blocked.any()
    assert build_obstacle_mask(grid, np.nextafter(limit, 0.0)).blocked.sum() == 5
    route = plan_route(grid, None, None, limit, WeatherCondition("dry", limit), (1, 1), (1, 2))
    assert route.waypoints == [(1, 1), (1, 2)]
    assert route.max_slope_deg == math.degrees(math.atan(limit))


def test_hop_tables_are_symmetric_bit_for_bit():
    # each hop is stored once, and read in both directions it has the slope
    # and cost the oracle computes from the heights, bit for bit.  The route
    # solver reads the cost table as an undirected graph of offsets 0-3
    from offroad.terrain import NEIGHBOR_OFFSETS
    rng = np.random.default_rng(31)
    grid, mask, goal = random_problem(rng, n=13, cell=6.0, obstacle_p=0.2, rough=2.0)
    problem = whole_grid_table(grid, mask, DRY, goal)
    alpha = compute_scaling_factors(grid, mask, DRY)
    slopes, cost = grid.neighbor_slopes, problem.hop_cost
    assert slopes.shape == cost.shape == (4, 13, 13)
    assert list(NEIGHBOR_OFFSETS[:4]) == FORWARD_OFFSETS
    for k in range(4):
        assert NEIGHBOR_OFFSETS[k + 4] == tuple(-d for d in NEIGHBOR_OFFSETS[k])
    assert mask.blocked.any()
    assert np.isfinite(cost).any() and np.isinf(cost[~np.isnan(slopes)]).any()

    def bits(value):
        return np.float64(value).tobytes()

    for a in np.ndindex(mask.blocked.shape):
        for dr, dc in EIGHT_NEIGHBORS:
            b = (a[0] + dr, a[1] + dc)
            if not in_grid(grid, b):
                continue
            slope, _ = oracle_hop(grid, a, b)
            expect = oracle_hop_cost(grid, mask.blocked, DRY.slope_limit, *alpha, a, b)
            assert bits(table_entry(slopes, a, b)) == bits(slope)
            assert bits(table_entry(cost, a, b)) == bits(expect)
            assert bits(table_entry(cost, b, a)) == bits(expect)
    # a forward hop off the grid has a NaN slope and is never admissible
    for k, (dr, dc) in enumerate(FORWARD_OFFSETS):
        for a in np.ndindex(mask.blocked.shape):
            if not in_grid(grid, (a[0] + dr, a[1] + dc)):
                assert np.isnan(slopes[k][a]) and np.isinf(cost[k][a])


def oracle_hop_graph(hop_cost):
    """(indptr, indices, data) of the hop graph of a (4, n_rows, n_cols) cost
    table, by a loop over every node and forward offset: an edge from each
    node to each neighbour its finite entry reaches, a row's edges sorted by
    the neighbour's flat index."""
    _, n_rows, n_cols = hop_cost.shape
    indptr, indices, data = [0], [], []
    for r in range(n_rows):
        for c in range(n_cols):
            row = []
            for k, (dr, dc) in enumerate(FORWARD_OFFSETS):
                cost = float(hop_cost[k, r, c])
                if math.isfinite(cost):
                    assert 0 <= r + dr < n_rows and 0 <= c + dc < n_cols
                    row.append(((r + dr) * n_cols + c + dc, cost))
            row.sort()
            indices += [target for target, _ in row]
            data += [cost for _, cost in row]
            indptr.append(len(indices))
    return indptr, indices, data


@pytest.mark.parametrize("block", [gr._GRAPH_BLOCK, 5])
def test_hop_graph_holds_each_finite_forward_hop_once(monkeypatch, block):
    # the CSR graph that the solve hands to scipy holds one edge per finite
    # forward entry, to the neighbour it names, at that entry's cost bit for
    # bit, each row's indices sorted and on the table.  Cases: a grid with
    # blocked nodes, a window cropped from it, and that window with one
    # admissible hop's cost overflowed to inf.  A block of 5 nodes divides
    # none of their node counts, so the graph is built from many blocks that
    # split grid rows and end on a short one
    monkeypatch.setattr(gr, "_GRAPH_BLOCK", block)
    rng = np.random.default_rng(41)
    grid, mask, _ = random_problem(rng, n=17, cell=5.0, obstacle_p=0.2)
    assert mask.blocked.any()
    free = [tuple(int(v) for v in node) for node in np.argwhere(~mask.blocked)]
    start, goal = free[len(free) // 3], free[-len(free) // 3]
    weights = gr.route_weights(grid, mask, DRY)
    whole = gr.build_dp_problem(weights, start, goal, math.inf)
    window = gr.build_dp_problem(weights, start, goal, 0.0)
    assert window.offset != (0, 0)
    assert window.shape[0] * window.shape[1] < whole.shape[0] * whole.shape[1]
    overflowed = window.hop_cost.copy()
    overflowed[tuple(np.argwhere(np.isfinite(overflowed))[0])] = np.inf
    cases = [whole, window, dataclasses.replace(window, hop_cost=overflowed)]
    for problem in cases:
        n = problem.shape[0] * problem.shape[1]
        assert n % 5 != 0
        graph = gr._hop_graph(problem)
        indptr, indices, data = oracle_hop_graph(problem.hop_cost)
        assert graph.shape == (n, n) and len(indices) > 0
        assert graph.indptr.tolist() == indptr
        assert graph.indices.tolist() == indices
        assert graph.data.tobytes() == np.array(data).tobytes()
        assert np.all((graph.indices >= 0) & (graph.indices < n))
        for i in range(n):
            assert np.all(np.diff(graph.indices[graph.indptr[i]:graph.indptr[i + 1]]) > 0)
    assert len(gr._hop_graph(cases[2]).data) == len(gr._hop_graph(window).data) - 1


def test_goal_must_be_a_state():
    grid = flat_grid(n=3)
    water = np.zeros((3, 3), dtype=bool)
    water[1, 1] = True
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT, water_mask=water)
    with pytest.raises(ValueError, match="obstacle"):
        gr.route_in_window(grid, mask, DRY, (0, 0), (1, 1))
    with pytest.raises(ValueError, match="outside"):
        gr.route_in_window(grid, mask, DRY, (0, 0), (5, 5))


# ---------------------------------------------------------------------------
# Value function (exact label-setting solve)
# ---------------------------------------------------------------------------

def test_goal_value_zero_policy_stay():
    grid = flat_grid(n=4, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (2, 2))
    vf = value_iteration(problem)
    assert vf.converged
    assert vf.values[2, 2] == 0.0
    assert vf.policy[2, 2] == STAY


def test_single_step_bellman_by_hand():
    # 1x2 flat grid is below the 2x2 minimum; use a 2x2 grid and check the
    # one-hop value: west neighbor of the goal costs alpha_d * cell
    grid = flat_grid(n=2, cell=7.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (0, 1))
    vf = value_iteration(problem)
    _, alpha_d = compute_scaling_factors(grid, mask, DRY)
    assert vf.values[0, 0] == pytest.approx(alpha_d * 7.0, abs=1e-12)
    assert vf.policy[0, 0] == 1  # East


def test_policy_ties_keep_lowest_action_id():
    # from (2, 1) to (0, 0) on flat ground, North-then-Northwest and
    # Northwest-then-North cost the same; the lower id (North = 3) wins
    grid = flat_grid(n=3, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (0, 0))
    vf = value_iteration(problem)
    via_north = problem.hop_cost[3 - 1][2, 1] + vf.values[1, 1]
    via_northwest = problem.hop_cost[4 - 1][2, 1] + vf.values[1, 0]
    assert via_north == via_northwest == vf.values[2, 1]
    assert vf.policy[2, 1] == 3


def test_values_match_dijkstra_on_random_grids():
    rng = np.random.default_rng(123)
    for _ in range(10):
        grid, mask, goal = random_problem(rng, n=14, cell=6.0, rough=2.0)
        weather = DRY
        problem = whole_grid_table(grid, mask, weather, goal)
        vf = value_iteration(problem)
        oracle = dijkstra_costs_to_goal(grid, mask.blocked, weather.slope_limit, goal,
                                        *compute_scaling_factors(grid, mask, weather))
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                if mask.blocked[r, c]:
                    continue
                expect = oracle.get((r, c), math.inf)
                got = vf.values[r, c]
                if math.isinf(expect):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expect, abs=1e-9)


def test_bellman_fixed_point_residual():
    # the solved values are an exact fixed point: every reachable state's
    # value equals the best one-hop cost plus successor value, bit for bit,
    # with the hop costs taken from the oracle; the policy takes the lowest
    # action id that attains it.  On the rough grid actions rarely tie; on
    # the flat one most states tie between a straight and a diagonal move
    from offroad.global_route import MOVES
    rough = random_problem(np.random.default_rng(17), n=15, cell=6.0, rough=2.0)
    flat = flat_grid(n=15, cell=5.0)
    flat = (flat, build_obstacle_mask(flat, DRY_SLOPE_LIMIT), (7, 4))
    for grid, mask, goal in (rough, flat):
        problem = whole_grid_table(grid, mask, DRY, goal)
        alpha = compute_scaling_factors(grid, mask, DRY)
        vf = value_iteration(problem)
        assert vf.converged
        assert vf.sweeps == 1
        ties = 0
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                if not math.isfinite(vf.values[r, c]):
                    continue
                if (r, c) == goal:
                    assert vf.values[r, c] == 0.0 and vf.policy[r, c] == STAY
                    continue
                candidates = {}
                for a, (dr, dc) in MOVES.items():
                    cost = oracle_hop_cost(grid, mask.blocked, DRY.slope_limit, *alpha,
                                           (r, c), (r + dr, c + dc))
                    if math.isfinite(cost):
                        candidates[a] = cost + vf.values[r + dr, c + dc]
                best = min(candidates.values())
                tied = [a for a, v in candidates.items() if v == best]
                ties += len(tied) > 1
                assert vf.values[r, c] - best == 0.0
                assert vf.policy[r, c] == min(tied)
    assert ties > (grid.n_rows * grid.n_cols) // 2


def test_tightening_slope_limit_never_helps():
    rng = np.random.default_rng(77)
    grid, mask, goal = random_problem(rng, n=12, cell=6.0, rough=3.0)
    loose = whole_grid_table(grid, mask, WeatherCondition("dry", 0.25), goal)
    # the same weights with the slope limit tightened to 0.10
    tight = dataclasses.replace(loose, hop_cost=np.where(grid.neighbor_slopes <= 0.10,
                                                         loose.hop_cost, np.inf))
    vf_loose = value_iteration(loose)
    vf_tight = value_iteration(tight)
    finite = np.isfinite(vf_tight.values)
    assert np.all(vf_tight.values[finite] >= vf_loose.values[finite] - 1e-12)
    # no state becomes reachable by tightening
    assert not np.any(np.isfinite(vf_tight.values) & ~np.isfinite(vf_loose.values))


def test_converged_false_when_a_value_breaks_bellman(monkeypatch):
    # the flag comes from the residual check, not from the solver's say-so
    import offroad.global_route as gr
    grid = flat_grid(n=5, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (4, 4))
    exact = gr.dijkstra

    def off_by_one_state(graph, indices, **kwargs):
        values = exact(graph, indices=indices, **kwargs)
        values[0] += 1.0
        return values

    monkeypatch.setattr(gr, "dijkstra", off_by_one_state)
    vf = value_iteration(problem)
    assert not vf.converged


def test_a_policy_that_stops_short_of_the_goal_is_a_fault(monkeypatch):
    # a finite value whose every neighbour is unreachable leaves the start
    # without an action: the value function is inconsistent, not the goal
    # unreachable
    import offroad.global_route as gr
    grid = flat_grid(n=5, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (4, 4))

    def isolated_start(graph, indices, **kwargs):
        values = np.full(graph.shape[0], np.inf)
        values[indices] = 0.0
        values[0] = 1.0
        return values

    monkeypatch.setattr(gr, "dijkstra", isolated_start)
    vf = value_iteration(problem)
    assert np.isfinite(vf.values[0, 0]) and vf.policy[0, 0] == 0
    with pytest.raises(RuntimeError, match="value function is inconsistent"):
        extract_route(vf, problem, (0, 0))


def serpentine_walls(n):
    """Water on every odd row, with the gap alternating between the east and
    west ends: one corridor that winds through every even row."""
    walls = np.zeros((n, n), dtype=bool)
    for r in range(1, n - 1, 2):
        walls[r, :] = True
        walls[r, n - 1 if (r // 2) % 2 == 0 else 0] = False
    return walls


def test_serpentine_maze_longer_than_rows_plus_cols(tmp_path):
    # the optimal route needs more hops than 4 * (rows + cols), so a solver
    # that sweeps a bounded number of times would call the start unreachable
    n = 21
    grid = flat_grid(n=n, cell=5.0)
    walls = serpentine_walls(n)
    weather = DRY
    mask = build_obstacle_mask(grid, water_mask=walls, steep_limit=weather.slope_limit)
    start, goal = (n - 1, n - 1), (0, 0)
    problem = whole_grid_table(grid, mask, weather, goal)
    vf = value_iteration(problem)
    assert vf.converged
    oracle = dijkstra_costs_to_goal(grid, mask.blocked, weather.slope_limit, goal,
                                    *compute_scaling_factors(grid, mask, weather))
    assert np.isfinite(vf.values).sum() == len(oracle)
    for node, expect in oracle.items():
        assert vf.values[node] == pytest.approx(expect, abs=1e-9)
    route = extract_route(vf, problem, start)
    assert len(route.waypoints) - 1 > 4 * (n + n)

    grid_path, water_path = tmp_path / "maze.csv", tmp_path / "maze_water.csv"
    write_grid_csv(grid, str(grid_path))
    write_grid_csv(ElevationGrid(n_cols=n, n_rows=n, cell_size=grid.cell_size,
                                 origin=grid.origin, heights=walls.astype(float)),
                   str(water_path))
    out = tmp_path / "route.csv"
    code = main(["route", "--grid", str(grid_path), "--water", str(water_path),
                 "--start", f"{start[0]},{start[1]}", "--goal", f"{goal[0]},{goal[1]}",
                 "--weather", "dry", "--out", str(out)])
    assert code == EXIT_OK
    assert read_route_csv(str(out)).waypoints == route.waypoints


def rolling_grid_with_water(n):
    """A fresh n x n rolling grid (its slopes not yet built) and a water mask
    with about 5 % of the nodes set, the corners clear."""
    rng = np.random.default_rng(300)
    y, x = np.mgrid[0:n, 0:n] * 5.0
    heights = (3.0 * np.sin(x / 40.0) * np.cos(y / 55.0)
               + rng.normal(scale=0.05, size=(n, n)))
    grid = ElevationGrid(n_cols=n, n_rows=n, cell_size=5.0, origin=(0.0, 0.0),
                         heights=heights)
    water = rng.random((n, n)) < 0.05
    water[0, 0] = water[-1, -1] = False
    return grid, water


def test_plan_route_peak_memory_per_node():
    # each hop's slope and cost is stored once and the solve makes no
    # (8, rows, cols) temporary: from the mask to the extracted route, one
    # corner-to-corner query on a fresh 300 x 300 grid (its slopes not yet
    # built) peaks within 200 traced bytes per node.  Storing each hop twice
    # and solving through 8-plane candidates peaked at 274 here
    n = 300
    grid, water = rolling_grid_with_water(n)
    tracemalloc.start()
    try:
        route = plan_route(grid, water, None, DRY_SLOPE_LIMIT, DRY, (0, 0), (n - 1, n - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert route is not None and len(route.waypoints) > n
    assert peak / grid.heights.size <= 200


def test_route_tables_make_no_per_move_temporary():
    # the tables keep 32 bytes per node (4 float64 cost planes); the
    # admissible planes add 4 more while they are built.  With the grid's
    # slopes already built, the whole grid's table peaks within 48
    # traced bytes per node.  Gathering every admissible hop twice, and one
    # hop length per move, for the scaling means peaked at 91 here
    n = 300
    grid, water = rolling_grid_with_water(n)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT, water_mask=water)
    tracemalloc.start()
    try:
        problem = whole_grid_table(grid, mask, DRY, (n - 1, n - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(problem.hop_cost).any()
    assert peak / grid.heights.size <= 48


# ---------------------------------------------------------------------------
# Windowed solve: simulate's route, solved on the nodes it can use
# ---------------------------------------------------------------------------

def rolling_site(seed, n, water_p=0.08):
    """A seeded n x n rolling grid on 5 m cells and a water mask."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:n, 0:n] * 5.0
    heights = (2.0 * np.sin(x / 23.0 + rng.uniform(0, 6)) * np.cos(y / 31.0)
               + rng.normal(scale=0.08, size=(n, n)))
    grid = ElevationGrid(n_cols=n, n_rows=n, cell_size=5.0, origin=(0.0, 0.0),
                         heights=heights)
    return grid, rng.random((n, n)) < water_p


def oracle_route_cost(grid, blocked, slope_limit, alpha, start, goal):
    """Least start -> goal cost by a plain heapq Dijkstra over the 8-neighbor
    hops, each costed from the heights by conftest's oracle; inf when the
    goal cannot be reached."""
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == goal:
            return d
        if d > dist[node]:
            continue
        for dr, dc in EIGHT_NEIGHBORS:
            nxt = (node[0] + dr, node[1] + dc)
            cost = oracle_hop_cost(grid, blocked, slope_limit, *alpha, node, nxt)
            if d + cost < dist.get(nxt, math.inf):
                dist[nxt] = d + cost
                heapq.heappush(heap, (d + cost, nxt))
    return math.inf


def full_route(grid, water, weather, start, goal):
    """The route that the whole grid's table gives, the windowed solve's
    reference."""
    mask = build_obstacle_mask(grid, weather.slope_limit, water_mask=water)
    problem = whole_grid_table(grid, mask, weather, goal)
    return extract_route(value_iteration(problem), problem, start)


def windowed_route(monkeypatch, grid, water, weather, start, goal):
    """(route, the tables its solve built, in order)."""
    tables = []
    build = gr.build_dp_problem

    def recorded(*args, **kwargs):
        tables.append(build(*args, **kwargs))
        return tables[-1]

    with monkeypatch.context() as patch:
        patch.setattr(gr, "build_dp_problem", recorded)
        route = plan_route(grid, water, None, weather.slope_limit, weather, start, goal)
    return route, tables


def windowed_and_full(monkeypatch, grid, water, weather, start, goal):
    """(windowed route, full route, the windowed solve's tables in order)."""
    windowed, tables = windowed_route(monkeypatch, grid, water, weather, start, goal)
    return windowed, full_route(grid, water, weather, start, goal), tables


def free_node(blocked, near):
    """The unblocked node nearest `near`, in grid order among ties."""
    free = np.argwhere(~blocked)
    return tuple(int(v) for v in free[np.argmin(np.abs(free - near).sum(axis=1))])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("weather", [DRY, WET], ids=["dry", "wet"])
def test_windowed_route_is_the_full_route(monkeypatch, seed, weather):
    # near and far pairs on seeded rolling grids with water: the windowed
    # route has the full solve's waypoints and its total_cost bit for bit,
    # and that cost is the least path cost an independent Dijkstra finds.
    # The fourth and fifth pairs are placed as route-batch places its
    # queries: the start near the southeast corner, the goal near the
    # northwest one
    n = 40
    grid, water = rolling_site(seed, n)
    mask = build_obstacle_mask(grid, weather.slope_limit, water_mask=water)
    alpha = compute_scaling_factors(grid, mask, weather)
    rng = np.random.default_rng(seed)
    pairs = [((20, 20), (12, 36)), ((n - 1, 0), (0, n - 1)), ((30, 5), (5, 30)),
             ((33, 35), (6, 8)), ((31, 33), (9, 5))]
    pairs += [(tuple(rng.integers(0, n, 2)), tuple(rng.integers(0, n, 2))) for _ in range(3)]
    reached = 0
    for a, b in pairs:
        start, goal = free_node(mask.blocked, a), free_node(mask.blocked, b)
        windowed, full, tables = windowed_and_full(monkeypatch, grid, water, weather,
                                                   start, goal)
        expect = oracle_route_cost(grid, mask.blocked, weather.slope_limit, alpha, start, goal)
        if full is None:
            assert windowed is None and expect == math.inf
            # unreachable only once the window is the whole grid
            assert tables[-1].bound == math.inf and tables[-1].shape == (n, n)
            continue
        reached += 1
        assert windowed.waypoints == full.waypoints
        assert np.float64(windowed.total_cost).tobytes() == np.float64(full.total_cost).tobytes()
        assert dataclasses.astuple(windowed) == dataclasses.astuple(full)
        assert windowed.total_cost == pytest.approx(expect, rel=1e-12)
        assert all(t.offset[0] <= r < t.offset[0] + t.shape[0]
                   and t.offset[1] <= c < t.offset[1] + t.shape[1]
                   for r, c in windowed.waypoints for t in tables[-1:])
    assert reached >= 3


def brute_force_window(grid, per_metre, start, goal, bound):
    """_window's (box, inside, bound) rebuilt by a loop over every node of
    the grid: W_B = {v : h(start, v) + h(v, goal) <= B}, h = per_metre times
    the octile distance, B at least 1.05 h(start, goal); a bounding box that
    is the whole grid gives the whole grid with B = inf."""
    straight, diagonal = grid.hop_runs[0], grid.hop_runs[1]

    def h(a, b):
        dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
        return per_metre * (diagonal * min(dr, dc) + straight * (max(dr, dc) - min(dr, dc)))

    bound = max(bound, 1.05 * h(start, goal))
    held = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)
            if h(start, (r, c)) + h((r, c), goal) <= bound]
    r0, r1 = min(r for r, _ in held), max(r for r, _ in held)
    c0, c1 = min(c for _, c in held), max(c for _, c in held)
    if (r0, c0, r1, c1) == (0, 0, grid.n_rows - 1, grid.n_cols - 1):
        return (slice(None), slice(None)), None, math.inf
    inside = np.zeros((r1 - r0 + 1, c1 - c0 + 1), dtype=bool)
    for r, c in held:
        inside[r - r0, c - c0] = True
    return (slice(r0, r1 + 1), slice(c0, c1 + 1)), inside, bound


def test_window_is_the_brute_force_bounding_box_of_w_b():
    # on small random grids, starts, goals and bounds, _window's box, nodes
    # and bound are the brute-force ones, whether or not its whole-box rule,
    # decided on the grid's four edges, or its reach pre-box applies
    rng = np.random.default_rng(29)
    whole = cropped = spanning = 0
    for _ in range(300):
        n_rows, n_cols = (int(v) for v in rng.integers(2, 13, size=2))
        grid = ElevationGrid(n_cols=n_cols, n_rows=n_rows,
                             cell_size=float(rng.choice([0.5, 5.0, 7.3])),
                             origin=(0.0, 0.0), heights=np.zeros((n_rows, n_cols)))
        per_metre = float(rng.choice([0.0, 0.02, 0.37, 1.0]))
        start, goal = ((int(rng.integers(n_rows)), int(rng.integers(n_cols)))
                       for _ in range(2))
        if rng.random() < 0.5:
            # from the first row to the last: W_B reaches two of the edges
            start, goal = (0, start[1]), (n_rows - 1, goal[1])
        bound = float(rng.choice([0.0, rng.uniform(0, 30), rng.uniform(0, 300), math.inf]))
        box, inside, got = gr._window(grid, per_metre, start, goal, bound)
        expect_box, expect_inside, expect = brute_force_window(grid, per_metre, start, goal,
                                                               bound)
        assert box == expect_box and got == expect
        if expect_inside is None:
            assert inside is None
            whole += 1
        else:
            assert np.array_equal(inside, expect_inside)
            cropped += 1
            spanning += inside.shape[0] == n_rows
    assert whole >= 50 and cropped >= 50 and spanning >= 20


def test_windowed_route_takes_a_second_round_for_a_detour(monkeypatch):
    # a water wall between start and goal, open at its west end: the
    # 1.05 x lower-bound window holds no path, so the bound grows, and the
    # detour found is still the full solve's route.  Three windows hold no
    # path; the fourth is the whole grid
    n = 30
    grid = flat_grid(n=n, cell=5.0)
    water = np.zeros((n, n), dtype=bool)
    water[15, 1:] = True
    windowed, full, tables = windowed_and_full(monkeypatch, grid, water, DRY,
                                               (25, 20), (5, 20))
    assert [t.bound < math.inf for t in tables] == [True, True, True, False]
    assert tables[0].shape[0] * tables[0].shape[1] < n * n / 4
    assert windowed.waypoints == full.waypoints
    assert (15, 0) in windowed.waypoints
    assert np.float64(windowed.total_cost).tobytes() == np.float64(full.total_cost).tobytes()


def route_batch_queries(directory, terrains=inputs.ROUTE_TERRAINS):
    """(query, grid, water, weather) of each route-batch query of seed 1,
    its foliage folded into the water."""
    for query in inputs.route_batch(1, str(directory), terrains=terrains):
        grid = load_elevation_grid(query.grid)
        water = load_mask(query.water, grid)
        if query.foliage:
            water |= load_mask(query.foliage, grid)
        yield query, grid, water, {"dry": DRY, "wet": WET}[query.weather]


def test_the_window_loop_ends_within_two_tables(monkeypatch, tmp_path):
    # up a uniform incline the straight route costs more than 1.05 times the
    # flat lower bound, so the first round's cost exceeds its bound.  That
    # cost is the least, so the second round, whose bound it is, finds it
    # again and must accept a cost equal to its bound; a loop that does not
    # builds tables until conftest's window_loop_ends fails the query
    grid = grid_from_function(lambda x, y: 0.05 * x, n_cols=9, n_rows=9, cell=10.0)
    route, tables = windowed_route(monkeypatch, grid, None, DRY, (4, 0), (4, 8))
    assert len(tables) == 2 and tables[1].bound == route.total_cost
    assert route.waypoints == [(4, c) for c in range(9)]
    # every route-batch query of seed 1 builds one table or two
    counts = [len(windowed_route(monkeypatch, grid, water, weather, query.start, query.goal)[1])
              for query, grid, water, weather in route_batch_queries(tmp_path)]
    assert len(counts) == 2 * inputs.ROUTE_TERRAINS + 1
    assert set(counts) == {1, 2}


def test_windows_stay_exact_when_alpha_m_is_negative():
    # on 0.25 m cells the mean hop run, below 1 m and above the mean slope,
    # makes alpha_m = (1 - mean_d) / (mean_m - mean_d) < 0, so a plane's
    # cheapest hop per metre is its steepest admissible one: a lower bound
    # taken at the least slope would be too large, and a window could miss
    # the optimal path.  The 5 m rolling site of seed 4, shrunk 20 times,
    # keeps its slopes; its far pairs are costed by the independent oracle
    n = 40
    site, water = rolling_site(4, n)
    grid = ElevationGrid(n_cols=n, n_rows=n, cell_size=0.25, origin=(0.0, 0.0),
                         heights=site.heights / 20.0)
    mask = build_obstacle_mask(grid, WET.slope_limit, water_mask=water)
    alpha = compute_scaling_factors(grid, mask, WET)
    assert alpha[0] < 0
    goal = free_node(mask.blocked, (0, 0))
    oracle = dijkstra_costs_to_goal(grid, mask.blocked, WET.slope_limit, goal, *alpha)
    for near in ((n - 1, 0), (n - 1, n - 1), (0, n - 1)):
        start = free_node(mask.blocked, near)
        route = plan_route(grid, water, None, WET.slope_limit, WET, start, goal)
        assert route.total_cost == pytest.approx(oracle[start], rel=1e-12)


def test_windowed_route_from_the_goal_is_one_node(monkeypatch):
    grid, water = rolling_site(7, 20)
    water[10, 10] = False
    windowed, full, tables = windowed_and_full(monkeypatch, grid, water, DRY,
                                               (10, 10), (10, 10))
    assert windowed.waypoints == full.waypoints == [(10, 10)]
    assert windowed.total_cost == full.total_cost == 0.0
    assert [t.shape for t in tables] == [(1, 1)]


def test_windowed_route_from_a_walled_in_start_is_none(monkeypatch):
    # a ring of water around the start: None, and only from a table that
    # holds the whole grid
    n = 24
    grid, water = rolling_site(3, n, water_p=0.0)
    water[4:9, 4:9] = True
    water[5:8, 5:8] = False
    windowed, full, tables = windowed_and_full(monkeypatch, grid, water, DRY, (6, 6), (18, 18))
    assert windowed is None and full is None
    assert len(tables) >= 2
    assert all(t.bound < math.inf for t in tables[:-1])
    assert tables[-1].bound == math.inf and tables[-1].shape == (n, n)
    assert tables[-1].offset == (0, 0)


def test_windowed_route_checks_the_goal_then_the_start(monkeypatch):
    # each node is checked once, before any table: a query with both nodes
    # bad names the goal
    grid, water = rolling_site(2, 12, water_p=0.0)
    water[3, 3] = True
    monkeypatch.setattr(gr, "build_dp_problem", None)
    for start, goal, message in (((3, 3), (8, 8), "start \\(3, 3\\) is an obstacle node"),
                                 ((8, 8), (3, 3), "goal \\(3, 3\\) is an obstacle node"),
                                 ((12, 0), (8, 8), "start \\(12, 0\\) is outside the grid"),
                                 ((8, 8), (0, -1), "goal \\(0, -1\\) is outside the grid"),
                                 ((3, 3), (0, -1), "goal \\(0, -1\\) is outside the grid"),
                                 ((12, 0), (3, 3), "goal \\(3, 3\\) is an obstacle node")):
        with pytest.raises(ValueError, match=message):
            plan_route(grid, water, None, DRY.slope_limit, DRY, start, goal)


def test_a_window_whose_box_is_the_whole_grid_is_the_last(monkeypatch, tmp_path):
    # a window whose bounding box is the whole grid is solved as the whole
    # grid, with bound inf, so no round follows it.  The 41 x 41 serpentine
    # maze queried from corner to corner builds one table, since every
    # window's box holds both corners; route-batch seed 1's terrain0-wet
    # query builds two, the second on the whole grid.  Cutting such a
    # window to W_B took one more table in each
    n = 41
    route, tables = windowed_route(monkeypatch, flat_grid(n=n, cell=5.0), serpentine_walls(n),
                                   DRY, (n - 1, n - 1), (0, 0))
    assert route is not None and len(route.waypoints) - 1 > 4 * (n + n)
    assert [(t.shape, t.offset, t.bound) for t in tables] == [((n, n), (0, 0), math.inf)]

    (query,) = [q for q in inputs.route_batch(1, str(tmp_path), terrains=1)
                if q.name == "terrain0-wet"]
    grid = load_elevation_grid(query.grid)
    water = load_mask(query.water, grid) | load_mask(query.foliage, grid)
    weighed = []
    weights = gr.route_weights
    monkeypatch.setattr(gr, "route_weights", lambda *args: weighed.append(args) or weights(*args))
    route, tables = windowed_route(monkeypatch, grid, water, WET, query.start, query.goal)
    monkeypatch.undo()
    assert route == full_route(grid, water, WET, query.start, query.goal)
    # both rounds crop the one query's whole-grid weights
    assert len(weighed) == 1 and len(tables) == 2
    assert tables[0].bound < math.inf and tables[0].shape != (grid.n_rows, grid.n_cols)
    assert tables[1].bound == math.inf and tables[1].shape == (grid.n_rows, grid.n_cols)


def test_plan_shaped_window_tables_only_its_bounding_box(monkeypatch):
    # a plan-and-track query (goal 8 rows north, 16 columns east) on a fresh
    # 300 x 300 grid: its one table covers the bounding box of W_B, the
    # nodes v with h(s, v) + h(v, g) <= B, not the grid.  The box is rebuilt
    # here from the least hop cost per metre over every admissible hop
    n = 300
    grid, water = rolling_grid_with_water(n)
    start, goal = (150, 150), (142, 166)
    water[start] = water[goal] = False
    windowed, full, tables = windowed_and_full(monkeypatch, grid, water, DRY, start, goal)
    assert windowed.waypoints == full.waypoints
    (table,) = tables
    assert table.hop_cost.shape[1:] == table.shape
    assert table.shape[0] * table.shape[1] < n * n / 100

    mask = build_obstacle_mask(grid, DRY.slope_limit, water_mask=water)
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, DRY)
    per_metre = math.inf
    for (dr, dc), slopes in zip(FORWARD_OFFSETS, grid.neighbor_slopes):
        run = 5.0 * math.hypot(dr, dc)
        src = ~mask.blocked[max(0, -dr):n - max(0, dr), max(0, -dc):n - max(0, dc)]
        dst = ~mask.blocked[max(0, dr):n + min(0, dr), max(0, dc):n + min(0, dc)]
        hop = slopes[max(0, -dr):n - max(0, dr), max(0, -dc):n - max(0, dc)]
        ok = src & dst & (hop <= DRY.slope_limit)
        per_metre = min(per_metre, float(((alpha_m * hop[ok] + alpha_d * run) / run).min()))

    def octile(a, rows, cols):
        dr, dc = np.abs(rows - a[0]), np.abs(cols - a[1])
        return 5.0 * (np.maximum(dr, dc) + (math.sqrt(2) - 1) * np.minimum(dr, dc))

    rows, cols = np.mgrid[0:n, 0:n]
    bound = 1.05 * per_metre * octile(start, *map(np.array, goal))
    inside = per_metre * (octile(start, rows, cols) + octile(goal, rows, cols)) <= bound
    r, c = np.flatnonzero(inside.any(axis=1)), np.flatnonzero(inside.any(axis=0))
    assert table.offset == (r[0], c[0])
    assert table.shape == (r[-1] - r[0] + 1, c[-1] - c[0] + 1)


def finite_hops_off_the_table(table):
    """How many finite entries of the table's forward planes hop to a
    neighbour that lies off the table."""
    n_rows, n_cols = table.shape
    rows, cols = np.mgrid[0:n_rows, 0:n_cols]
    return sum(int(np.isfinite(plane[(rows + dr < 0) | (rows + dr >= n_rows)
                                     | (cols + dc < 0) | (cols + dc >= n_cols)]).sum())
               for (dr, dc), plane in zip(FORWARD_OFFSETS, table.hop_cost))


def test_no_table_has_a_finite_hop_that_leaves_it(monkeypatch, tmp_path):
    # scipy's dijkstra does not check the CSR's indices, so a finite hop off
    # a table's edge reads past the graph: windows cropped without the
    # both-ends trim crashed the interpreter on the route-batch queries.
    # Each table is checked before it is solved, so such a table fails here
    solve = gr.value_iteration

    def checked(problem):
        assert finite_hops_off_the_table(problem) == 0, (problem.offset, problem.shape)
        return solve(problem)

    monkeypatch.setattr(gr, "value_iteration", checked)
    tables = []
    for query, grid, water, weather in route_batch_queries(tmp_path, terrains=1):
        tables += windowed_route(monkeypatch, grid, water, weather, query.start, query.goal)[1]
    # plan-and-track's shape: the goal 8 rows north and 16 columns east
    grid, water = rolling_grid_with_water(300)
    start, goal = (150, 150), (142, 166)
    water[start] = water[goal] = False
    tables += windowed_route(monkeypatch, grid, water, DRY, start, goal)[1]
    assert sum(t.bound < math.inf for t in tables) >= 3

    mask = build_obstacle_mask(grid, DRY.slope_limit, water_mask=water)
    whole = whole_grid_table(grid, mask, DRY, goal)
    assert finite_hops_off_the_table(whole) == 0


# ---------------------------------------------------------------------------
# Route extraction
# ---------------------------------------------------------------------------

def test_route_start_equals_goal():
    grid = flat_grid(n=3, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (1, 1))
    vf = value_iteration(problem)
    route = extract_route(vf, problem, (1, 1))
    assert route.waypoints == [(1, 1)]
    assert route.total_cost == 0.0
    assert route.total_distance == 0.0


def test_route_diagonal_dominance_on_flat():
    grid = flat_grid(n=5, cell=10.0)
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT)
    problem = whole_grid_table(grid, mask, DRY, (4, 4))
    vf = value_iteration(problem)
    route = extract_route(vf, problem, (0, 0))
    assert len(route.waypoints) == 5  # 4 diagonal hops
    assert route.total_distance == pytest.approx(4 * 10.0 * math.sqrt(2))


def ridge_fixture(cell=10.0, n=7, ridge_height=1.0):
    """Flat terrain split by a full-width raised row between start and goal."""
    grid = flat_grid(n=n, cell=cell)
    grid.heights[3, :] = ridge_height
    return grid


def test_weather_reachability_flip():
    grid = ridge_fixture()
    dry = DRY    # tan(6.90 deg) ~ 0.121: 1 m over 10 m passes
    wet = WET    # tan(2.77 deg) ~ 0.048: 1 m over 10 m fails
    start, goal = (6, 3), (0, 3)
    for weather, expect_reachable in ((dry, True), (wet, False)):
        mask = build_obstacle_mask(grid, steep_limit=weather.slope_limit)
        problem = whole_grid_table(grid, mask, weather, goal)
        vf = value_iteration(problem)
        route = extract_route(vf, problem, start)
        assert (route is not None) == expect_reachable
        if expect_reachable:
            assert route.max_slope_deg <= math.degrees(math.atan(weather.slope_limit)) + 1e-9


def test_route_slopes_respect_limit():
    rng = np.random.default_rng(31)
    for _ in range(5):
        grid, mask, goal = random_problem(rng, n=12, cell=8.0, rough=1.5)
        weather = WET
        problem = whole_grid_table(grid, mask, weather, goal)
        vf = value_iteration(problem)
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                if mask.blocked[r, c] or not math.isfinite(vf.values[r, c]):
                    continue
                route = extract_route(vf, problem, (r, c))
                if route.waypoints:
                    limit_deg = math.degrees(math.atan(weather.slope_limit))
                    assert route.max_slope_deg <= limit_deg + 1e-9


def test_policy_determinism():
    rng = np.random.default_rng(55)
    grid, mask, goal = random_problem(rng, n=10, cell=7.0)
    weather = DRY
    p1 = whole_grid_table(grid, mask, weather, goal)
    p2 = whole_grid_table(grid, mask, weather, goal)
    v1 = value_iteration(p1)
    v2 = value_iteration(p2)
    assert np.array_equal(v1.policy, v2.policy)
    r1 = extract_route(v1, p1, (0, 0))
    r2 = extract_route(v2, p2, (0, 0))
    assert r1.waypoints == r2.waypoints


# ---------------------------------------------------------------------------
# Route CSV round trip
# ---------------------------------------------------------------------------

def test_route_csv_round_trip(tmp_path):
    grid = ridge_fixture()
    weather = DRY
    mask = build_obstacle_mask(grid, steep_limit=weather.slope_limit)
    problem = whole_grid_table(grid, mask, weather, (0, 3))
    vf = value_iteration(problem)
    route = extract_route(vf, problem, (6, 3))
    p = tmp_path / "route.csv"
    write_route_csv(route, grid, str(p))
    back = read_route_csv(str(p))
    assert back.waypoints == route.waypoints
    assert back.total_cost == route.total_cost
    assert back.total_distance == route.total_distance
    assert back.mean_slope_deg == route.mean_slope_deg
    assert back.max_slope_deg == route.max_slope_deg


def test_route_csv_hop_slopes_match_node_heights(tmp_path):
    # oracle: each hop's slope and the running distance recomputed from the
    # written node positions and heights, not from the grid's slope table
    rng = np.random.default_rng(8)
    grid, mask, goal = random_problem(rng, n=12, cell=5.0, obstacle_p=0.1)
    problem = whole_grid_table(grid, mask, WeatherCondition("dry", 10.0), goal)
    free = np.argwhere(~mask.blocked)
    start = tuple(int(v) for v in free[np.argmax(np.abs(free - goal).max(axis=1))])
    route = extract_route(value_iteration(problem), problem, start)
    assert len(route.waypoints) > 5
    p = tmp_path / "route.csv"
    write_route_csv(route, grid, str(p))
    rows = np.loadtxt(p, delimiter=",", skiprows=2)
    x, y, z = rows[:, 3], rows[:, 4], rows[:, 5]
    run = np.hypot(np.diff(x), np.diff(y))
    slope_deg = np.degrees(np.arctan(np.abs(np.diff(z)) / run))
    assert rows[0, 6] == 0.0 and rows[0, 7] == 0.0
    np.testing.assert_allclose(rows[1:, 6], slope_deg, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rows[1:, 7], np.cumsum(run), rtol=1e-12)
    assert route.total_distance == pytest.approx(run.sum(), rel=1e-12)
    assert route.mean_slope_deg == pytest.approx(slope_deg.mean(), rel=1e-12)
    assert route.max_slope_deg == pytest.approx(slope_deg.max(), rel=1e-12)


def test_route_csv_rejects_a_hop_between_non_neighbours(tmp_path):
    # a hop's slope and run are read by its offset, which only 8-neighbours
    # have: a stay, a two-row jump up or down is refused, not misread
    grid = flat_grid(n=4, cell=10.0)
    for waypoints in ([(1, 1), (1, 1)], [(0, 0), (2, 0)], [(3, 3), (1, 3)]):
        route = PlannedRoute(waypoints=waypoints, total_cost=1.0, total_distance=20.0,
                             mean_slope_deg=0.0, max_slope_deg=0.0)
        with pytest.raises(ValueError, match="does not join 8-neighbors"):
            write_route_csv(route, grid, str(tmp_path / "route.csv"))


def test_route_planar_waypoints():
    # simulate turns a planned route's nodes into planar waypoints with
    # ElevationGrid.node_position: row 0 is the northernmost
    grid = flat_grid(n=3, cell=10.0)
    route = PlannedRoute(waypoints=[(2, 0), (1, 1)], total_cost=1.0,
                         total_distance=14.14, mean_slope_deg=0.0, max_slope_deg=0.0)
    pts = [grid.node_position(*node) for node in route.waypoints]
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (10.0, 10.0)
