"""The benchmark's tracer (`perfbench/spans.py`) wraps program functions by
name where the CLI looks them up.  These tests fail when a rename or a call
that bypasses a hooked name would silently break `perfbench/run.py --trace 1`.
"""

from offroad import cli, control, global_route, simulate
from offroad.local_path import DesiredTrajectory
from offroad.terrain import SurfaceModel, write_grid_csv
from perfbench.spans import Tracer, patch_offroad

from conftest import flat_grid

SPANS = {
    "terrain.load", "terrain.mask", "terrain.spline_build", "terrain.eval",
    "global_route.tables", "global_route.solve", "global_route.extract",
    "global_route.write", "local_path.geometry", "local_path.profile",
    "local_path.sample", "local_path.write", "vehicle.frame_motion",
    "control.step", "simulate.loop", "simulate.write", "render.scene",
}

STRAIGHT_CONFIG = """\
[terrain]
grid = flat.csv

[path]
waypoints = 3.0,10.0; 9.0,10.0
turn_radius = 2.0
nominal_speed = 2.0
max_yaw_rate = 1.0
initial_speed = 2.0

[vehicle]
max_steer = none
max_steer_rate = none

[simulation]
dt = 0.01
"""


def hooked():
    return [cli.load_elevation_grid, cli.load_mask, cli.build_obstacle_mask,
            cli.SurfaceModel, cli.plan_geometry, cli.build_speed_profile,
            cli.write_trajectory_csv, cli.render_scene,
            global_route.build_dp_problem, global_route.value_iteration,
            global_route.extract_route, global_route.write_route_csv,
            simulate.run_simulation, simulate.write_log_csv,
            simulate.frame_and_motion, simulate.control_step,
            control.frame_and_motion, SurfaceModel.eval, DesiredTrajectory.sample]


def test_patch_offroad_finds_every_name_and_unpatch_restores_it():
    before = hooked()
    tracer = Tracer()
    patch_offroad(tracer)
    try:
        assert all(a is not b for a, b in zip(hooked(), before))
    finally:
        tracer.unpatch()
    assert all(a is b for a, b in zip(hooked(), before))


def test_every_span_fires_and_a_step_evaluates_the_loop_four_times(tmp_path):
    grid_path = tmp_path / "flat.csv"
    write_grid_csv(flat_grid(n=20, cell=1.0), str(grid_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(STRAIGHT_CONFIG)
    out = tmp_path / "out"
    tracer = Tracer()
    patch_offroad(tracer)
    try:
        assert cli.main(["route", "--grid", str(grid_path), "--start", "19,3",
                         "--goal", "10,3", "--out", str(tmp_path / "route.csv")]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert cli.main(["render", "--grid", str(grid_path),
                         "--log", str(out / "log.csv"), "--out", str(tmp_path / "s.svg")]) == 0
    finally:
        tracer.unpatch()
    calls = {name: row[0] for name, row in tracer.per_op()[-1].items()}
    assert set(calls) == SPANS
    steps = tracer.counts[(-1, "steps")]
    assert steps == 301
    # one step-start evaluation, logged and reused as RK4 k1, plus three stages;
    # the last logged step is not integrated
    assert calls["vehicle.frame_motion"] == 4 * (steps - 1) + 1
    assert calls["control.step"] == 4 * (steps - 1) + 1
