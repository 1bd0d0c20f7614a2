"""Command-line front end: plan routes, simulate trajectory tracking, and
render SVG scenes from grid/mask/route/log files.

The config keys are declared, defaulted and checked in `config`, and the
route flags go through its row,col node parser and its weather resolution.
`main` is the one place where a failed input becomes an exit code: a
ValueError or OSError from any command prints ``error: <message>`` to
stderr and exits 4, without a traceback.

Exit codes: 0 success, 2 destination unreachable, 3 constraint violation
during simulation, 4 input error (usage errors included).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import global_route as gr
from . import simulate as sim
from .config import load_run_config, parse_node, resolve_weather
from .local_path import (
    DesiredTrajectory,
    build_speed_profile,
    plan_geometry,
    write_trajectory_csv,
)
from .render import render_scene
from .terrain import (
    SLOPE_LIMITS,
    ElevationGrid,
    SurfaceModel,
    WeatherCondition,
    build_obstacle_mask,
    load_elevation_grid,
    load_mask,
)

EXIT_OK = 0
EXIT_UNREACHABLE = 2
EXIT_CONSTRAINT = 3
EXIT_INPUT = 4


def plan_route(
    grid: ElevationGrid, water: np.ndarray | None, foliage: np.ndarray | None,
    steep_limit: float, weather: WeatherCondition, start: tuple[int, int], goal: tuple[int, int],
) -> gr.PlannedRoute | None:
    """Obstacle mask and exact route solve (`gr.route_in_window`) for one
    start/goal query; None when no admissible path exists.  Raises
    ValueError on bad nodes or an unsolvable table."""
    mask = build_obstacle_mask(grid, water_mask=water, foliage_mask=foliage,
                               steep_limit=steep_limit)
    return gr.route_in_window(grid, mask, weather, start, goal)


def _read_masks(
    grid: ElevationGrid, water_path: str | None, foliage_path: str | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The water and foliage masks of the files given."""
    return tuple(load_mask(path, grid) if path else None for path in (water_path, foliage_path))


def _unreachable(weather: WeatherCondition, start: tuple[int, int],
                 goal: tuple[int, int]) -> int:
    print(f"UNREACHABLE: no admissible path from {start} to {goal} "
          f"under slope limit {weather.slope_limit:.4f}")
    return EXIT_UNREACHABLE


def cmd_route(args) -> int:
    start = parse_node("--start", args.start)
    goal = parse_node("--goal", args.goal)
    weather, steep_limit = resolve_weather(("--slope-limit", "--steep-limit"), args.weather,
                                           args.slope_limit, args.steep_limit)
    grid = load_elevation_grid(args.grid)
    route = plan_route(grid, *_read_masks(grid, args.water, args.foliage), steep_limit,
                       weather, start, goal)
    if route is None:
        return _unreachable(weather, start, goal)
    gr.write_route_csv(route, grid, args.out)
    print(f"route written to {args.out}: {len(route.waypoints)} waypoints, "
          f"dist {route.total_distance:.2f} m, mean slope "
          f"{route.mean_slope_deg:.2f} deg, max slope {route.max_slope_deg:.2f} deg")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_run_config(args.config)
    grid = load_elevation_grid(config.grid_path)
    waypoints = config.waypoints
    if waypoints is not None:
        x_min, x_max, y_min, y_max = grid.bounds
        outside = [(x, y) for x, y in waypoints
                   if not (x_min <= x <= x_max and y_min <= y <= y_max)]
        if outside:
            raise ValueError(f"path.waypoints: {outside[0]} lies outside the grid extent "
                             f"x=[{x_min}, {x_max}], y=[{y_min}, {y_max}]")
    else:
        route = plan_route(grid, *_read_masks(grid, config.water_mask_path,
                                              config.foliage_mask_path),
                           config.steep_limit, config.weather, config.start, config.goal)
        if route is None:
            return _unreachable(config.weather, config.start, config.goal)
        waypoints = [grid.node_position(*node) for node in route.waypoints]

    # built after the route, whose tables plan_route has freed on return
    surface = SurfaceModel(grid)
    geometry = plan_geometry(waypoints, rho=config.trajectory.turn_radius)
    profile = build_speed_profile(geometry, config.trajectory)
    trajectory = DesiredTrajectory(geometry, profile, surface)
    try:
        scenario = sim.Scenario(trajectory=trajectory, gains=config.gains,
                                params=config.vehicle, **config.simulation)
    except ValueError as exc:
        raise ValueError(f"simulation: {exc}") from exc

    out_dir = args.out_dir or config.out_dir
    traj_path = os.path.join(out_dir, "trajectory.csv")
    log_path = os.path.join(out_dir, "log.csv")
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(trajectory, scenario.dt, traj_path)
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
    grid = load_elevation_grid(args.grid)
    route = gr.read_route_csv(args.route) if args.route else None
    log = sim.read_log_csv(args.log) if args.log else None
    render_scene(grid, route=route, log=log, out_path=args.out)
    print(f"scene written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors, in subcommands too, exit EXIT_INPUT, not argparse's 2."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_route.add_argument("--weather", choices=tuple(SLOPE_LIMITS), default="dry")
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
