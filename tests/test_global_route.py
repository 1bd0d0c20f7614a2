import math

import numpy as np
import pytest

from offroad.global_route import (
    STAY,
    PlannedRoute,
    ScalingError,
    build_dp_problem,
    compute_scaling_factors,
    extract_route,
    read_route_csv,
    route_planar_waypoints,
    value_iteration,
    write_route_csv,
)
from offroad.cli import EXIT_OK, main
from offroad.terrain import ElevationGrid, WeatherCondition, build_obstacle_mask, write_grid_csv

from conftest import dijkstra_costs_to_goal, flat_grid, grid_from_function, random_problem


# ---------------------------------------------------------------------------
# Scaling factors
# ---------------------------------------------------------------------------

def test_scaling_flat_terrain():
    grid = flat_grid(n=5, cell=10.0)
    mask = build_obstacle_mask(grid)
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, WeatherCondition.dry())
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
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, WeatherCondition.dry())
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
                    if s <= WeatherCondition.dry().slope_limit:
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
    with pytest.raises(ScalingError):
        compute_scaling_factors(grid, mask, WeatherCondition("dry", 100.0))


def test_scaling_example_by_hand():
    # mean_m = 0 (flat), mean_d = 10: alpha_d = 0.1, alpha_m = 0.9
    grid = flat_grid(n=2, cell=10.0)
    mask = build_obstacle_mask(grid)
    # drop diagonals from the average by blocking nothing; a 2x2 grid has
    # 4 orthogonal hops of 10 and 4 diagonal hops of 10*sqrt(2) per direction
    alpha_m, alpha_d = compute_scaling_factors(grid, mask, WeatherCondition.dry())
    mean_d = (8 * 10.0 + 4 * 10.0 * math.sqrt(2)) / 12
    assert alpha_d == pytest.approx(1.0 / mean_d)
    assert alpha_m == pytest.approx(1.0 - alpha_d)


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------

def test_flat_interior_node_has_eight_moves():
    grid = flat_grid(n=3, cell=10.0)
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(0, 0))
    center = (1, 1)
    assert all(problem.move_admissible[a][center] for a in range(1, 9))
    corner = (0, 0)
    admissible = [a for a in range(1, 9) if problem.move_admissible[a][corner]]
    assert len(admissible) == 3


def test_steep_hop_inadmissible_under_both_weathers():
    # east neighbor 2 m higher over 10 m: slope 0.2 exceeds both limits
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[1, 2] = 2.0
    mask = build_obstacle_mask(grid, steep_limit=10.0)
    wet = build_dp_problem(grid, mask, WeatherCondition.wet(), goal=(0, 0))
    dry = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(0, 0))
    east = 1
    assert 0.2 > WeatherCondition.wet().slope_limit
    assert not wet.move_admissible[east][1, 1]
    assert 0.2 > WeatherCondition.dry().slope_limit
    assert not dry.move_admissible[east][1, 1]
    # a gentler rise passes dry but not wet
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[1, 2] = 0.8   # slope 0.08
    mask = build_obstacle_mask(grid, steep_limit=10.0)
    wet = build_dp_problem(grid, mask, WeatherCondition.wet(), goal=(0, 0))
    dry = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(0, 0))
    assert dry.move_admissible[east][1, 1]
    assert not wet.move_admissible[east][1, 1]


def test_goal_must_be_a_state():
    grid = flat_grid(n=3)
    water = np.zeros((3, 3), dtype=bool)
    water[1, 1] = True
    mask = build_obstacle_mask(grid, water_mask=water)
    with pytest.raises(ValueError, match="obstacle"):
        build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(1, 1))
    with pytest.raises(ValueError, match="outside"):
        build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(5, 5))


# ---------------------------------------------------------------------------
# Value function (exact label-setting solve)
# ---------------------------------------------------------------------------

def test_goal_value_zero_policy_stay():
    grid = flat_grid(n=4, cell=10.0)
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(2, 2))
    vf = value_iteration(problem)
    assert vf.converged
    assert vf.values[2, 2] == 0.0
    assert vf.policy[2, 2] == STAY


def test_single_step_bellman_by_hand():
    # 1x2 flat grid is below the 2x2 minimum; use a 2x2 grid and check the
    # one-hop value: west neighbor of the goal costs alpha_d * cell
    grid = flat_grid(n=2, cell=7.0)
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(0, 1))
    vf = value_iteration(problem)
    assert vf.values[0, 0] == pytest.approx(problem.alpha_d * 7.0, abs=1e-12)
    assert vf.policy[0, 0] == 1  # East


def test_policy_ties_keep_lowest_action_id():
    # from (2, 1) to (0, 0) on flat ground, North-then-Northwest and
    # Northwest-then-North cost the same; the lower id (North = 3) wins
    grid = flat_grid(n=3, cell=10.0)
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(0, 0))
    vf = value_iteration(problem)
    via_north = problem.move_cost[3][2, 1] + vf.values[1, 1]
    via_northwest = problem.move_cost[4][2, 1] + vf.values[1, 0]
    assert via_north == via_northwest == vf.values[2, 1]
    assert vf.policy[2, 1] == 3


def test_values_match_dijkstra_on_random_grids():
    rng = np.random.default_rng(123)
    for _ in range(10):
        grid, mask, goal = random_problem(rng, n=14, cell=6.0, rough=2.0)
        weather = WeatherCondition.dry()
        problem = build_dp_problem(grid, mask, weather, goal=goal)
        vf = value_iteration(problem)
        oracle = dijkstra_costs_to_goal(grid, mask.blocked, weather.slope_limit,
                                        goal, problem.alpha_m, problem.alpha_d)
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
    # value equals the best one-hop cost plus successor value, bit for bit
    from offroad.global_route import MOVES
    rng = np.random.default_rng(17)
    grid, mask, goal = random_problem(rng, n=15, cell=6.0, rough=2.0)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=goal)
    vf = value_iteration(problem)
    assert vf.converged
    assert vf.sweeps == 1
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            if not vf.reachable((r, c)):
                continue
            if (r, c) == goal:
                assert vf.values[r, c] == 0.0
                continue
            best = math.inf
            for a, (dr, dc) in MOVES.items():
                if problem.move_admissible[a][r, c]:
                    best = min(best, problem.move_cost[a][r, c]
                               + vf.values[r + dr, c + dc])
            assert vf.values[r, c] - best == 0.0


def test_tightening_slope_limit_never_helps():
    rng = np.random.default_rng(77)
    grid, mask, goal = random_problem(rng, n=12, cell=6.0, rough=3.0)
    loose = build_dp_problem(grid, mask, WeatherCondition("dry", 0.25), goal=goal)
    tight = build_dp_problem(grid, mask, WeatherCondition("wet", 0.10), goal=goal,
                             alpha=(loose.alpha_m, loose.alpha_d))
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
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(4, 4))
    exact = gr.dijkstra

    def off_by_one_state(graph, indices):
        values = exact(graph, indices=indices)
        values[0] += 1.0
        return values

    monkeypatch.setattr(gr, "dijkstra", off_by_one_state)
    vf = value_iteration(problem)
    assert not vf.converged


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
    weather = WeatherCondition.dry()
    mask = build_obstacle_mask(grid, water_mask=walls, steep_limit=weather.slope_limit)
    start, goal = (n - 1, n - 1), (0, 0)
    problem = build_dp_problem(grid, mask, weather, goal=goal)
    vf = value_iteration(problem)
    assert vf.converged
    oracle = dijkstra_costs_to_goal(grid, mask.blocked, weather.slope_limit,
                                    goal, problem.alpha_m, problem.alpha_d)
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


# ---------------------------------------------------------------------------
# Route extraction
# ---------------------------------------------------------------------------

def test_route_start_equals_goal():
    grid = flat_grid(n=3, cell=10.0)
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(1, 1))
    vf = value_iteration(problem)
    route = extract_route(vf, problem, (1, 1))
    assert route.waypoints == [(1, 1)]
    assert route.total_cost == 0.0
    assert route.total_distance == 0.0


def test_route_diagonal_dominance_on_flat():
    grid = flat_grid(n=5, cell=10.0)
    mask = build_obstacle_mask(grid)
    problem = build_dp_problem(grid, mask, WeatherCondition.dry(), goal=(4, 4))
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
    dry = WeatherCondition.dry()    # tan(6.90 deg) ~ 0.121: 1 m over 10 m passes
    wet = WeatherCondition.wet()    # tan(2.77 deg) ~ 0.048: 1 m over 10 m fails
    start, goal = (6, 3), (0, 3)
    for weather, expect_reachable in ((dry, True), (wet, False)):
        mask = build_obstacle_mask(grid, steep_limit=weather.slope_limit)
        problem = build_dp_problem(grid, mask, weather, goal=goal)
        vf = value_iteration(problem)
        route = extract_route(vf, problem, start)
        assert route.reachable == expect_reachable
        if expect_reachable:
            assert route.max_slope_deg <= math.degrees(math.atan(weather.slope_limit)) + 1e-9


def test_route_slopes_respect_limit():
    rng = np.random.default_rng(31)
    for _ in range(5):
        grid, mask, goal = random_problem(rng, n=12, cell=8.0, rough=1.5)
        weather = WeatherCondition.wet()
        problem = build_dp_problem(grid, mask, weather, goal=goal)
        vf = value_iteration(problem)
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                if mask.blocked[r, c] or not vf.reachable((r, c)):
                    continue
                route = extract_route(vf, problem, (r, c))
                if route.waypoints:
                    limit_deg = math.degrees(math.atan(weather.slope_limit))
                    assert route.max_slope_deg <= limit_deg + 1e-9


def test_policy_determinism():
    rng = np.random.default_rng(55)
    grid, mask, goal = random_problem(rng, n=10, cell=7.0)
    weather = WeatherCondition.dry()
    p1 = build_dp_problem(grid, mask, weather, goal=goal)
    p2 = build_dp_problem(grid, mask, weather, goal=goal)
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
    weather = WeatherCondition.dry()
    mask = build_obstacle_mask(grid, steep_limit=weather.slope_limit)
    problem = build_dp_problem(grid, mask, weather, goal=(0, 3))
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


def test_route_planar_waypoints():
    grid = flat_grid(n=3, cell=10.0)
    route = PlannedRoute(waypoints=[(2, 0), (1, 1)], total_cost=1.0,
                         total_distance=14.14, mean_slope_deg=0.0, max_slope_deg=0.0)
    pts = route_planar_waypoints(route, grid)
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (10.0, 10.0)
