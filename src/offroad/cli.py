"""Command-line front end: plan routes, simulate trajectory tracking, and
render SVG scenes from grid/mask/route/log files.

Exit codes: 0 success, 2 destination unreachable, 3 constraint violation
during simulation, 4 input error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import global_route as gr
from . import simulate as sim
from .config import ConfigError, load_run_config
from .local_path import (
    DesiredTrajectory,
    GeometryError,
    ProfileError,
    build_speed_profile,
    plan_geometry,
    write_trajectory_csv,
)
from .render import RenderError, render_scene
from .terrain import (
    DRY_SLOPE_LIMIT,
    WET_SLOPE_LIMIT,
    ElevationGrid,
    GridFormatError,
    SurfaceModel,
    WeatherCondition,
    build_obstacle_mask,
    load_elevation_grid,
    load_mask,
    parse_numeric_rows,
    read_lines,
)

EXIT_OK = 0
EXIT_UNREACHABLE = 2
EXIT_CONSTRAINT = 3
EXIT_INPUT = 4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _parse_node(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected ROW,COL, got {raw!r}")
    return int(parts[0]), int(parts[1])


def plan_route(
    grid: ElevationGrid, water: np.ndarray | None, foliage: np.ndarray | None,
    steep_limit: float, weather: WeatherCondition,
    start: tuple[int, int], goal: tuple[int, int],
) -> gr.PlannedRoute:
    """Obstacle mask, route tables, exact solve and route extraction for one
    start/goal query; raises ValueError on bad nodes or an unsolvable table."""
    mask = build_obstacle_mask(grid, water_mask=water, foliage_mask=foliage,
                               steep_limit=steep_limit)
    problem = gr.build_dp_problem(grid, mask, weather, goal=goal)
    vf = gr.value_iteration(problem)
    return gr.extract_route(vf, problem, start)


def cmd_route(args) -> int:
    try:
        grid = load_elevation_grid(args.grid)
        water = load_mask(args.water, grid) if args.water else None
        foliage = load_mask(args.foliage, grid) if args.foliage else None
        start = _parse_node(args.start)
        goal = _parse_node(args.goal)
    except (GridFormatError, ValueError, OSError) as exc:
        return _fail(str(exc))

    limit = args.slope_limit
    if limit is None:
        limit = DRY_SLOPE_LIMIT if args.weather == "dry" else WET_SLOPE_LIMIT
    weather = WeatherCondition(args.weather, limit)
    steep = args.steep_limit if args.steep_limit is not None else weather.slope_limit

    try:
        route = plan_route(grid, water, foliage, steep, weather, start, goal)
    except ValueError as exc:
        return _fail(str(exc))

    if not route.reachable:
        print(f"UNREACHABLE: no admissible path from {start} to {goal} "
              f"under slope limit {weather.slope_limit:.4f}")
        return EXIT_UNREACHABLE

    gr.write_route_csv(route, grid, args.out)
    print(f"route written to {args.out}: {len(route.waypoints)} waypoints, "
          f"dist {route.total_distance:.2f} m, mean slope "
          f"{route.mean_slope_deg:.2f} deg, max slope {route.max_slope_deg:.2f} deg")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        config = load_run_config(args.config)
    except ConfigError as exc:
        return _fail(str(exc))

    try:
        grid = load_elevation_grid(config.grid_path)
    except GridFormatError as exc:
        return _fail(str(exc))
    surface = SurfaceModel(grid)

    waypoints = config.waypoints
    if waypoints is not None:
        outside = [p for p in waypoints if not surface.contains(*p)]
        if outside:
            x_min, x_max, y_min, y_max = surface.bounds
            return _fail(f"path.waypoints: {outside[0]} lies outside the grid extent "
                         f"x=[{x_min}, {x_max}], y=[{y_min}, {y_max}]")
    else:
        if config.start is None or config.goal is None:
            return _fail("config needs either path.waypoints or route.start and route.goal")
        try:
            water = (load_mask(config.water_mask_path, grid)
                     if config.water_mask_path else None)
            foliage = (load_mask(config.foliage_mask_path, grid)
                       if config.foliage_mask_path else None)
            route = plan_route(grid, water, foliage, config.steep_limit, config.weather,
                               config.start, config.goal)
        except ValueError as exc:
            return _fail(str(exc))
        if not route.reachable:
            print("UNREACHABLE: route planning found no admissible path")
            return EXIT_UNREACHABLE
        waypoints = gr.route_planar_waypoints(route, grid)

    try:
        geometry = plan_geometry(waypoints, rho=config.trajectory.turn_radius)
        profile = build_speed_profile(geometry, config.trajectory)
        trajectory = DesiredTrajectory(geometry, profile, surface)
    except (GeometryError, ProfileError) as exc:
        return _fail(str(exc))

    out_dir = args.out_dir if args.out_dir else config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, "trajectory.csv")
    log_path = os.path.join(out_dir, "log.csv")
    write_trajectory_csv(trajectory, config.dt, traj_path)

    scenario = sim.Scenario(
        surface=surface, trajectory=trajectory, gains=config.gains,
        params=config.vehicle, dt=config.dt, duration=config.duration,
        fn_policy=config.fn_policy,
    )
    log = sim.run_simulation(scenario)
    sim.write_log_csv(log, log_path)
    if len(log) == 0:
        print(f"simulation {log.status}: stopped before the first step")
    else:
        metrics = sim.tracking_metrics(log)
        print(f"simulation {log.status}: {len(log)} steps, max error "
              f"{metrics.max_err:.4f} m at t={metrics.t_max_err:.2f} s, "
              f"min contact force {metrics.min_normal_force:.1f} N")
    print(f"trajectory: {traj_path}\nlog: {log_path}")
    if log.status != sim.STATUS_COMPLETED:
        return EXIT_CONSTRAINT
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        grid = load_elevation_grid(args.grid)
        route = gr.read_route_csv(args.route) if args.route else None
        log = _read_log_csv(args.log) if args.log else None
        render_scene(grid, route=route, log=log, out_path=args.out)
    except (GridFormatError, RenderError, ValueError, OSError) as exc:
        return _fail(str(exc))
    print(f"scene written to {args.out}")
    return EXIT_OK


def _read_log_csv(path: str) -> dict[str, np.ndarray]:
    """The numeric columns of a simulation log CSV, keyed by header name."""
    lines, numbers = read_lines(path)
    if not lines or lines[0].strip() != sim.LOG_COLUMNS:
        raise ValueError(f"{path}: not a simulation log CSV")
    if len(lines) == 1:
        raise ValueError(f"{path}: empty log")
    names = sim.LOG_COLUMNS.split(",")
    data = parse_numeric_rows(lines[1:], len(names), path, numbers[1:])
    return dict(zip(names, data.T))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offroad",
        description="Plan slope-constrained routes over gridded terrain, plan "
                    "line+arc trajectories, and simulate closed-loop tracking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="plan a waypoint route on a grid")
    p_route.add_argument("--grid", required=True)
    p_route.add_argument("--water", default=None)
    p_route.add_argument("--foliage", default=None)
    p_route.add_argument("--start", required=True, metavar="ROW,COL")
    p_route.add_argument("--goal", required=True, metavar="ROW,COL")
    p_route.add_argument("--weather", choices=("dry", "wet"), default="dry")
    p_route.add_argument("--slope-limit", type=float, default=None)
    p_route.add_argument("--steep-limit", type=float, default=None)
    p_route.add_argument("--out", required=True)
    p_route.set_defaults(func=cmd_route)

    p_sim = sub.add_parser("simulate", help="run a closed-loop tracking scenario")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out-dir", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_render = sub.add_parser("render", help="render grid/route/log to SVG")
    p_render.add_argument("--grid", required=True)
    p_render.add_argument("--route", default=None)
    p_render.add_argument("--log", default=None)
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
