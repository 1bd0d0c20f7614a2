import contextlib
import dataclasses
import io
import math
import os
import re
import shutil
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offroad import cli, config, local_path, simulate
from offroad import global_route as gr
from offroad.cli import (
    EXIT_CONSTRAINT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNREACHABLE,
    main,
)
from offroad.config import load_run_config
from offroad.global_route import read_route_csv
from offroad.render import SvgScene
from offroad.simulate import LOG_COLUMNS
from offroad.terrain import WET_SLOPE_LIMIT, ElevationGrid, SurfaceModel, WeatherCondition

from conftest import flat_grid, grid_from_function, write_grid_csv


def ridge_grid():
    grid = flat_grid(n=7, cell=10.0)
    grid.heights[3, :] = 1.0   # 0.1 slope onto the ridge: dry ok, wet not
    return grid


def write_fixture_grid(tmp_path, grid, name="grid.csv"):
    p = tmp_path / name
    write_grid_csv(grid, str(p))
    return p


def near_flat_case_grid():
    return grid_from_function(
        lambda x, y: 0.05 * np.sin(x / 30.0) * np.cos(y / 25.0),
        n_cols=41, n_rows=41, cell=2.0, origin=(850.0, 370.0))


CASE_CONFIG = """\
[terrain]
grid = grid.csv

[path]
waypoints = 885.0,418.5; 892.5,411.0; 885.0,403.5
turn_radius = 4.0
nominal_speed = 2.0
max_yaw_rate = 1.0
initial_speed = 2.0

[vehicle]
wheelbase = 2.0
mass = 1000.0
max_steer = none
max_steer_rate = none

[controller]
k1 = 10.0
k2 = 20.0

[simulation]
dt = 0.01
"""


# ---------------------------------------------------------------------------
# route command
# ---------------------------------------------------------------------------

def test_route_dry_writes_csv(tmp_path, capsys):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    out = tmp_path / "route.csv"
    code = main(["route", "--grid", str(grid_path), "--start", "6,3",
                 "--goal", "0,3", "--weather", "dry", "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    route = read_route_csv(str(out))
    assert route.waypoints[0] == (6, 3)
    assert route.waypoints[-1] == (0, 3)
    assert "route written" in capsys.readouterr().out


def test_route_wet_unreachable(tmp_path, capsys):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    out = tmp_path / "route.csv"
    code = main(["route", "--grid", str(grid_path), "--start", "6,3",
                 "--goal", "0,3", "--weather", "wet", "--out", str(out)])
    assert code == EXIT_UNREACHABLE
    assert "UNREACHABLE" in capsys.readouterr().out
    assert not out.exists()


def test_route_missing_grid(tmp_path, capsys):
    code = main(["route", "--grid", str(tmp_path / "nope.csv"), "--start", "0,0",
                 "--goal", "1,1", "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_route_malformed_grid_names_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("ncols,3\nnrows,2\ncellsize,1.0\norigin,0,0\n0,0,0\n0,zz,0\n")
    code = main(["route", "--grid", str(p), "--start", "0,0", "--goal", "1,1",
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_INPUT
    assert ":6:" in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["grid", "mask"])
@pytest.mark.parametrize("header, message", [
    ("nrows,2\nncols,3\ncellsize,1.0\norigin,0,0\n", "1: expected 'ncols,...' header line"),
    ("ncols,3\nnrows,2\ncellsize,1.0\norigin,0\n", "4: expected 'origin,...' header line"),
    ("ncols,3\nnrows,2\ncellsize,abc\norigin,0,0\n", "3: cellsize: not a number: 'abc'"),
    ("ncols,3\nnrows,2\ncellsize,inf\norigin,0,0\n",
     "3: cellsize must be positive and finite, got inf"),
    ("ncols,3\nnrows,2\ncellsize,1.0\norigin,nan,0\n",
     "4: origin must be finite, got (nan, 0.0)"),
    ("ncols,2.5\nnrows,2\ncellsize,1.0\norigin,0,0\n", "1: ncols: not a whole number: '2.5'"),
], ids=["swapped key", "missing origin value", "non-numeric cellsize", "infinite cellsize",
        "nan origin", "fractional ncols"])
def test_malformed_header_is_reported_once_with_its_line(tmp_path, capsys, bad_file, header,
                                                         message):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("ncols,3\nnrows,2\ncellsize,1.0\norigin,0,0\n0,0,0\n0,0,0\n")
    bad.write_text(header + "0,0,0\n0,0,0\n")
    grid, water = (bad, good) if bad_file == "grid" else (good, bad)
    argv = ["route", "--grid", str(grid), "--water", str(water), "--start", "0,0",
            "--goal", "1,1", "--out", str(tmp_path / "r.csv")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {bad}:{message}\n"


@pytest.mark.parametrize("cell", ["2", "nan", "inf"])
def test_route_mask_cell_not_0_or_1_names_its_line(tmp_path, capsys, cell):
    grid, water = tmp_path / "grid.csv", tmp_path / "m.csv"
    grid.write_text("ncols,2\nnrows,2\ncellsize,1.0\norigin,0,0\n0,0\n0,0\n")
    water.write_text(f"ncols,2\nnrows,2\ncellsize,1.0\norigin,0,0\n0,{cell}\n0,0\n")
    out = tmp_path / "route.csv"
    code = main(["route", "--grid", str(grid), "--water", str(water), "--start", "0,0",
                 "--goal", "1,0", "--out", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {water}:5: column 1: mask cell must be 0 or 1, got '{cell}'\n")
    assert not out.exists()


@pytest.mark.parametrize("cell, origin", [(10.0, (5.0, 0.0)), (10.0, (0.0, -10.0)),
                                          (5.0, (0.0, 0.0))])
def test_route_mask_with_other_cell_layout_rejected(tmp_path, capsys, cell, origin):
    grid = ridge_grid()
    grid_path = write_fixture_grid(tmp_path, grid)
    mask = ElevationGrid(n_cols=grid.n_cols, n_rows=grid.n_rows, cell_size=cell,
                         origin=origin, heights=np.zeros(grid.heights.shape))
    water_path = write_fixture_grid(tmp_path, mask, name="water.csv")
    out = tmp_path / "route.csv"
    code = main(["route", "--grid", str(grid_path), "--water", str(water_path),
                 "--start", "6,3", "--goal", "0,3", "--out", str(out)])
    assert code == EXIT_INPUT
    assert "water.csv" in capsys.readouterr().err
    assert not out.exists()


def test_route_csv_byte_identical_across_runs(tmp_path):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["route", "--grid", str(grid_path), "--start", "6,0",
                     "--goal", "0,6", "--weather", "dry", "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_route_round_trip_preserves_route(tmp_path):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    out = tmp_path / "route.csv"
    main(["route", "--grid", str(grid_path), "--start", "6,1", "--goal", "0,5",
          "--weather", "dry", "--out", str(out)])
    route = read_route_csv(str(out))
    # re-serialize through the round trip and compare field by field
    from offroad.global_route import write_route_csv
    out2 = tmp_path / "route2.csv"
    write_route_csv(route, ridge_grid(), str(out2))
    assert read_route_csv(str(out2)).waypoints == route.waypoints


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def write_case_config(tmp_path, config_text=CASE_CONFIG):
    write_fixture_grid(tmp_path, near_flat_case_grid())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    return cfg


def test_simulate_case_study(tmp_path, capsys):
    cfg = write_case_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "log.csv").exists()
    text = capsys.readouterr().out
    assert "max error" in text
    # the reported max error respects the tracking bound
    max_err = float(text.split("max error ")[1].split(" m")[0])
    assert max_err <= 0.15


def test_simulate_outputs_deterministic(tmp_path):
    cfg = write_case_config(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
        outs.append(((out_dir / "trajectory.csv").read_bytes(),
                     (out_dir / "log.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_simulate_missing_grid_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CASE_CONFIG)
    code = main(["simulate", "--config", str(cfg)])
    assert code == EXIT_INPUT
    assert "does not exist" in capsys.readouterr().err


def test_simulate_zero_dt_rejected(tmp_path, capsys):
    bad = CASE_CONFIG.replace("dt = 0.01", "dt = 0")
    cfg = write_case_config(tmp_path, bad)
    code = main(["simulate", "--config", str(cfg)])
    assert code == EXIT_INPUT
    assert "simulation.dt" in capsys.readouterr().err


def test_simulate_from_rest_stops_at_step_zero(tmp_path, capsys):
    # no initial_speed: the car starts from rest, below min_ctrl_speed
    write_fixture_grid(tmp_path, flat_grid(n=21, cell=2.0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[terrain]\ngrid = grid.csv\n\n"
                   "[path]\nwaypoints = 10.0,10.0; 30.0,10.0; 30.0,30.0\n")
    out_dir = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_CONSTRAINT
    assert "simulation singular_speed" in capsys.readouterr().out
    assert (out_dir / "log.csv").read_text() == LOG_COLUMNS + "\n"
    # the header-only log renders as a log without steps: no trace
    scene = tmp_path / "scene.svg"
    assert main(["render", "--grid", str(tmp_path / "grid.csv"), "--log",
                 str(out_dir / "log.csv"), "--out", str(scene)]) == EXIT_OK
    assert "<polyline" not in scene.read_text()


@pytest.mark.parametrize("config_text", [
    CASE_CONFIG.replace("k1 = 10.0", "k1 = 1e300"),
    # the contact force is lost at step 0; warn runs on to the overflow
    CASE_CONFIG.replace("wheelbase = 2.0", "wheelbase = 1e-300") + "fn_policy = warn\n",
], ids=["k1-1e300", "wheelbase-1e-300"])
def test_simulate_float_overflow_stops_with_its_log(tmp_path, capsys, config_text):
    # the surface lift squares a speed with a float **, which raises
    # OverflowError where * would give inf: the run stops at that step with
    # status overflow, exit 3, and writes the log it has
    cfg = write_case_config(tmp_path, config_text)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == EXIT_CONSTRAINT
    assert captured.out.startswith("simulation overflow: 1 steps, ")
    assert captured.err == ""
    assert not caught
    log = simulate.read_log_csv(str(out_dir / "log.csv"))
    assert len(log["t_s"]) == 1 and log["t_s"][0] == 0.0


def overflowing_range_argv(tmp_path, command):
    # every height is finite, but highest minus lowest is not
    heights = np.full((8, 8), 1.7e308)
    heights[1::2] = -1.7e308
    grid_path = write_fixture_grid(tmp_path, ElevationGrid(
        n_cols=8, n_rows=8, cell_size=10.0, origin=(0.0, 0.0), heights=heights))
    (tmp_path / "run.cfg").write_text(ROUTED_CONFIG.format(grid=grid_path.name, extra=""))
    return {
        "route": ["route", "--grid", str(grid_path), "--start", "6,3", "--goal", "0,3",
                  "--out", str(tmp_path / "route.csv")],
        "render": ["render", "--grid", str(grid_path), "--out", str(tmp_path / "scene.svg")],
        "simulate": ["simulate", "--config", str(tmp_path / "run.cfg"),
                     "--out-dir", str(tmp_path / "o")],
    }[command]


@pytest.mark.parametrize("command", ["route", "render", "simulate"])
def test_grid_with_overflowing_height_range_exits_4(tmp_path, capsys, command):
    argv = overflowing_range_argv(tmp_path, command)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err == (f"error: {tmp_path / 'grid.csv'}: height range -1.7e+308 to "
                   "1.7e+308 overflows float64\n")
    assert not caught
    assert not (tmp_path / "route.csv").exists() and not (tmp_path / "scene.svg").exists()


def main_recording_warnings(argv):
    """main(argv) with every warning recorded: (exit code, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [f"{w.filename}:{w.lineno}: {w.message}" for w in caught]


def write_float_range_grid(tmp_path, heights, cell, origin=(0.0, 0.0)):
    # a namespace, not an ElevationGrid: the file may hold a grid it rejects
    return write_fixture_grid(tmp_path, SimpleNamespace(
        n_cols=heights.shape[1], n_rows=heights.shape[0], cell_size=cell, origin=origin,
        heights=heights))


def test_hop_slopes_past_float64_are_infinite_without_a_warning(tmp_path, capsys):
    # a rise of up to 2e150 over a 1e-300 m run: every slope is inf, so every
    # node is steep, and render draws them all as obstacles
    heights = np.random.default_rng(0).uniform(-1e150, 1e150, (12, 12))
    grid_path = write_float_range_grid(tmp_path, heights, 1e-300)
    code, caught = main_recording_warnings(
        ["route", "--grid", str(grid_path), "--start", "0,0", "--goal", "11,11",
         "--out", str(tmp_path / "route.csv")])
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == "error: goal (11, 11) is an obstacle node\n"
    code, caught = main_recording_warnings(
        ["render", "--grid", str(grid_path), "--out", str(tmp_path / "scene.svg")])
    assert (code, caught) == (EXIT_OK, [])
    assert capsys.readouterr().err == ""
    assert (tmp_path / "scene.svg").read_text().count('fill="#7987a6"') == 144


def test_nominal_speed_whose_square_overflows_exits_4(tmp_path, capsys):
    write_fixture_grid(tmp_path, flat_grid(n=20))
    (tmp_path / "run.cfg").write_text(
        "[terrain]\ngrid = grid.csv\n[path]\nwaypoints = 2,2; 15,2; 15,15\n"
        "turn_radius = 2\nnominal_speed = 1e300\n")
    code, caught = main_recording_warnings(
        ["simulate", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")])
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == (
        "error: a speed of 1e+300 m/s overflows float64 in the speed profile\n")


def alternating_rows(value, n=8):
    heights = np.full((n, n), value)
    heights[1::2] = -value
    return heights


@pytest.mark.parametrize("heights, cell, message", [
    # rows alternating ±8e307 on 5 m cells: the range fits float64, but the
    # spline's sums of six rises do not
    (alternating_rows(8e307), 5.0,
     "grid heights -8e+307 to 8e+307 on 5.0 m cells overflow float64 in the surface spline"),
    # a flat grid whose cell size squared overflows
    (np.zeros((8, 8)), 1e300,
     "grid heights 0.0 to 0.0 on 1e+300 m cells overflow float64 in the surface spline"),
], ids=["heights-8e307", "cells-1e300"])
def test_simulate_on_a_grid_the_spline_cannot_hold_exits_4(tmp_path, capsys, heights, cell,
                                                           message):
    write_float_range_grid(tmp_path, heights, cell)
    (tmp_path / "run.cfg").write_text(
        f"[terrain]\ngrid = grid.csv\n[path]\nwaypoints = {cell!r},{cell!r}; "
        f"{6 * cell!r},{cell!r}\n")
    code, caught = main_recording_warnings(
        ["simulate", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")])
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_route_whose_mean_slope_overflows_exits_4(tmp_path, capsys):
    # every hop of rows alternating ±8e307 on 5 m cells is admissible under
    # these limits, and 210 slopes of up to 3.2e307 sum past float64: the
    # slope weight would come out 0 and drop the slope term from the cost
    grid_path = write_float_range_grid(tmp_path, alternating_rows(8e307), 5.0)
    code, caught = main_recording_warnings(
        ["route", "--grid", str(grid_path), "--start", "0,0", "--goal", "7,7",
         "--slope-limit", "1e308", "--steep-limit", "1e308", "--out", str(tmp_path / "r.csv")])
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == "error: grid hop slopes up to 3.2e+307 sum past float64\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("cell, relief", [(1.0, 1e300), (1e-12, 1e150)])
def test_simulate_on_a_grid_whose_slopes_square_past_float64_exits_4(tmp_path, capsys, cell,
                                                                      relief):
    # the spline holds these heights, but the squares of its slopes, which
    # the car's frame adds, overflow: the normal would have no z part
    heights = np.random.default_rng(0).uniform(-relief, relief, (12, 12))
    write_float_range_grid(tmp_path, heights, cell)
    (tmp_path / "run.cfg").write_text(
        f"[terrain]\ngrid = grid.csv\n[path]\nwaypoints = {2 * cell!r},{5 * cell!r}; "
        f"{8 * cell!r},{5 * cell!r}\ninitial_speed = 2.0\n")
    code, caught = main_recording_warnings(
        ["simulate", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")])
    assert (code, caught) == (EXIT_INPUT, [])
    low, high = float(heights.min()), float(heights.max())
    assert capsys.readouterr().err == (
        f"error: grid heights {low!r} to {high!r} on {cell!r} m cells give surface slopes "
        "whose squares overflow float64\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("relief, speed", [(1e100, 1e110), (1e10, 1e150)])
def test_simulate_too_fast_for_its_surface_exits_4(tmp_path, capsys, relief, speed):
    # the spline holds these heights and the profile holds the speed, but
    # the vertical speed slope x speed squares past float64 in the reference
    # and the aligned start, which left a nan contact force and exit 0
    heights = np.random.default_rng(0).uniform(-relief, relief, (12, 12))
    write_float_range_grid(tmp_path, heights, 1.0)
    (tmp_path / "run.cfg").write_text(
        f"[terrain]\ngrid = grid.csv\n[path]\nwaypoints = 2,2; 9,2\n"
        f"nominal_speed = {speed!r}\ninitial_speed = {speed!r}\n")
    code, caught = main_recording_warnings(
        ["simulate", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")])
    assert (code, caught) == (EXIT_INPUT, [])
    low, high = float(heights.min()), float(heights.max())
    assert capsys.readouterr().err == (
        f"error: a speed of {speed!r} m/s over grid heights {low!r} to {high!r} on 1.0 m "
        "cells overflows float64 in the surface lift\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_cols, cell", [(3, 1e15), (5, 1e15), (3, 2.0 ** -51)])
def test_simulate_on_a_3_node_axis_the_spline_cannot_solve_exits_4(tmp_path, capsys, n_cols,
                                                                   cell):
    # scipy's dense solve of a 3-node axis finds these spacings ill-conditioned
    heights = np.random.default_rng(n_cols).uniform(-1.0, 1.0, (3, n_cols))
    write_float_range_grid(tmp_path, heights, cell)
    (tmp_path / "run.cfg").write_text(
        f"[terrain]\ngrid = grid.csv\n[path]\nwaypoints = {0.2 * cell!r},{cell!r}; "
        f"{(n_cols - 1.2) * cell!r},{cell!r}\nnominal_speed = 1e12\naccel = 1e12\n"
        "decel = 1e12\ninitial_speed = 1.0\n")
    code, caught = main_recording_warnings(
        ["simulate", "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")])
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == (
        f"error: grid spacing {cell!r} m on a 3-node axis is outside the 2**-49 to 2**46 m "
        "the surface spline solves\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n, cell, origin, message", [
    # the nodes' offsets overflow, with or without the origin added
    (6, 1e308, (0.0, 0.0), "grid x nodes 0.0 + k * 1e+308 m for k < 6"),
    (6, 5e307, (-1e308, -1e308), "grid x nodes -1e+308 + k * 5e+307 m for k < 6"),
    # the offsets vanish in the sum: every column has the same x
    (6, 5.0, (1.7e308, 0.0), "grid x nodes 1.7e+308 + k * 5.0 m for k < 6"),
], ids=["cells-1e308", "origin-minus-1e308", "origin-1.7e308"])
@pytest.mark.parametrize("command", ["route", "render", "simulate"])
def test_grid_whose_nodes_overflow_or_repeat_exits_4(tmp_path, capsys, n, cell, origin, message,
                                                     command):
    grid_path = write_float_range_grid(tmp_path, np.zeros((n, n)), cell, origin)
    (tmp_path / "run.cfg").write_text(
        f"[terrain]\ngrid = grid.csv\n[weather]\nslope_limit = 1e300\nsteep_limit = 1e300\n"
        f"[route]\nstart = 0,0\ngoal = {n - 1},{n - 1}\n")
    argv = {"route": ["route", "--grid", str(grid_path), "--start", "0,0",
                      "--goal", f"{n - 1},{n - 1}", "--slope-limit", "1e300",
                      "--steep-limit", "1e300", "--out", str(tmp_path / "route.csv")],
            "render": ["render", "--grid", str(grid_path), "--out", str(tmp_path / "g.svg")],
            "simulate": ["simulate", "--config", str(tmp_path / "run.cfg"),
                         "--out-dir", str(tmp_path / "o")]}[command]
    code, caught = main_recording_warnings(argv)
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == (
        f"error: {grid_path}: {message} overflow float64 or do not increase\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "run.cfg"]


def test_route_whose_mean_hop_run_overflows_exits_4(tmp_path, capsys):
    # the nodes 0 and 1e308 fit float64, but the six hops of a 2x2 grid,
    # up to 1.41e308 m each, sum past it
    grid_path = write_float_range_grid(tmp_path, np.zeros((2, 2)), 1e308)
    code, caught = main_recording_warnings(
        ["route", "--grid", str(grid_path), "--start", "0,0", "--goal", "1,1",
         "--slope-limit", "1e300", "--steep-limit", "1e300", "--out", str(tmp_path / "r.csv")])
    assert (code, caught) == (EXIT_INPUT, [])
    assert capsys.readouterr().err == (
        "error: grid hop runs up to 1.41421e+308 m sum past float64\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (("mass = 1000.0", "mass = inf"), "vehicle.mass"),
    (("892.5,411.0", "x,411.0"), "path.waypoints"),
    (("892.5,411.0", "992.5,411.0"), "outside the grid extent"),
    (("initial_speed = 2.0", "initial_speed = nan"), "path.initial_speed"),
    (("initial_speed = 2.0", "initial_speed = -1"), "path.initial_speed"),
    # the weather limits; slope_limit sets the limit of either kind, so the
    # per-kind keys are gone
    (("[path]", "[weather]\nsteep_limit =\n[path]"),
     "error: weather.steep_limit: not a number: ''\n"),
    (("[path]", "[weather]\nsteep_limit = 0\n[path]"),
     "error: weather.steep_limit: must be positive and finite, got 0\n"),
    (("[path]", "[weather]\nslope_limit = nan\n[path]"),
     "error: weather.slope_limit: must be positive and finite, got nan\n"),
    (("[path]", "[weather]\nkind = snow\n[path]"),
     "error: weather.kind: must be dry or wet, got 'snow'\n"),
    (("[path]", "[weather]\ndry_slope_limit = 0.2\n[path]"),
     "error: unknown key weather.dry_slope_limit\n"),
    (("[path]", "[weather]\nwet_slope_limit = 0.2\n[path]"),
     "error: unknown key weather.wet_slope_limit\n"),
])
def test_simulate_bad_config_value_exits_4(tmp_path, capsys, edit, message):
    cfg = write_case_config(tmp_path, CASE_CONFIG.replace(*edit))
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_simulate_constraint_violation_exit_code(tmp_path):
    grid = grid_from_function(lambda x, y: 6.0 * np.exp(-((x - 30.0) ** 2) / 60.0),
                              n_cols=31, n_rows=31, cell=2.0)
    write_fixture_grid(tmp_path, grid)
    cfg_text = """\
[terrain]
grid = grid.csv

[path]
waypoints = 6.0,30.0; 54.0,30.0
turn_radius = 4.0
nominal_speed = 8.0
max_yaw_rate = 3.0
initial_speed = 8.0

[vehicle]
max_steer = none
max_steer_rate = none

[simulation]
dt = 0.01
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONSTRAINT


def test_simulate_via_route_planning(tmp_path):
    grid = flat_grid(n=9, cell=8.0)
    write_fixture_grid(tmp_path, grid)
    cfg_text = """\
[terrain]
grid = grid.csv

[weather]
kind = dry

[route]
start = 8,0
goal = 0,8

[path]
turn_radius = 3.0
nominal_speed = 2.0
max_yaw_rate = 1.0
initial_speed = 2.0

[vehicle]
max_steer = none
max_steer_rate = none

[simulation]
dt = 0.01
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_OK



def test_routed_run_builds_the_surface_after_the_route(tmp_path, monkeypatch):
    # the route tables are freed before the spline allocates: SurfaceModel
    # is called only once value_iteration has returned
    events = []
    solve = gr.value_iteration

    def traced_solve(problem):
        events.append("solve")
        vf = solve(problem)
        events.append("solved")
        return vf

    def traced_surface(grid):
        events.append("surface")
        return SurfaceModel(grid)

    monkeypatch.setattr(gr, "value_iteration", traced_solve)
    monkeypatch.setattr(cli, "SurfaceModel", traced_surface)
    write_fixture_grid(tmp_path, flat_grid(n=9, cell=8.0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[terrain]\ngrid = grid.csv\n[route]\nstart = 8,0\ngoal = 0,8\n"
                   "[path]\nturn_radius = 3.0\ninitial_speed = 2.0\n")
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    assert events == ["solve", "solved", "surface"]


def test_routed_run_completes_under_default_limits(tmp_path, capsys):
    # a planned, many-cornered route over rolling terrain with the shipped
    # actuator limits: the car tracks it to the end (exit 0)
    grid = grid_from_function(lambda x, y: 0.5 * np.sin(x / 20.0) * np.cos(y / 15.0),
                              n_cols=12, n_rows=12, cell=5.0)
    write_fixture_grid(tmp_path, grid)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[terrain]\ngrid = grid.csv\n\n[route]\nstart = 9,2\ngoal = 2,9\n\n"
                   "[path]\nturn_radius = 1.0\ninitial_speed = 2.0\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    assert "simulation completed" in capsys.readouterr().out
    traj_rows = (out / "trajectory.csv").read_text().count("\n")
    assert (out / "log.csv").read_text().count("\n") == traj_rows > 100


def test_routed_run_logs_the_trajectory_rows(tmp_path):
    # the simulation and trajectory.csv read one reference: at every logged
    # step, (xd, yd, zd) is the trajectory.csv row of that step, bit for bit
    grid = grid_from_function(lambda x, y: 0.5 * np.sin(x / 20.0) * np.cos(y / 15.0),
                              n_cols=9, n_rows=9, cell=8.0)
    write_fixture_grid(tmp_path, grid)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[terrain]\ngrid = grid.csv\n\n[route]\nstart = 7,1\ngoal = 1,6\n\n"
                   "[path]\nturn_radius = 3.0\ninitial_speed = 2.0\n\n"
                   "[vehicle]\nmax_steer = none\nmax_steer_rate = none\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    traj = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
    log = [line.split(",") for line in (out / "log.csv").read_text().splitlines()]
    assert len(log) == len(traj) > 100
    assert {row[10] for row in traj[1:]} != {"0"}   # more than one segment
    for t_row, l_row in zip(traj[1:], log[1:]):
        assert l_row[7:10] == t_row[1:4]



def test_block_sampling_leaves_outputs_unchanged(tmp_path, monkeypatch):
    # simulate and trajectory.csv sample the reference in blocks of times;
    # blocks of 30 times (10 steps) give the same files byte for byte, also
    # when the run goes on past the trajectory end
    write_fixture_grid(tmp_path, flat_grid(n=20, cell=2.0))
    for duration in ("", "duration = 18.0\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[terrain]\ngrid = grid.csv\n\n[path]\n"
                       "waypoints = 10.0,10.0; 28.0,10.0; 28.0,28.0\nturn_radius = 3.0\n"
                       "initial_speed = 2.0\n\n[vehicle]\nmax_steer = none\n"
                       "max_steer_rate = none\n\n[simulation]\ndt = 0.05\n" + duration)
        outputs = []
        for block in (local_path.SAMPLE_BLOCK, 30):
            monkeypatch.setattr(local_path, "SAMPLE_BLOCK", block)
            monkeypatch.setattr(simulate, "SAMPLE_BLOCK", block)
            out = tmp_path / f"o{block}"
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) in (
                EXIT_OK, EXIT_CONSTRAINT)
            outputs.append([(out / name).read_bytes() for name in ("trajectory.csv",
                                                                    "log.csv")])
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\n") > 300


def test_simulate_route_to_grid_corner_runs(tmp_path):
    # the path ends on the grid's corner node (0, 38); its reference points,
    # the end included, stay on the grid
    write_fixture_grid(tmp_path, flat_grid(n=20, cell=2.0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[terrain]\ngrid = grid.csv\n\n[route]\nstart = 15,3\ngoal = 0,0\n\n"
                   "[path]\nturn_radius = 3.0\ninitial_speed = 2.0\n")
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_OK
    rows = np.loadtxt(tmp_path / "o" / "trajectory.csv", delimiter=",", skiprows=1,
                      usecols=(1, 2))
    assert rows.min() >= 0.0 and rows.max() <= 38.0
    assert rows[-1] == pytest.approx([0.0, 38.0], abs=0.05)
    assert (tmp_path / "o" / "log.csv").exists()


def test_simulate_route_to_grid_edge_node_completes(tmp_path, capsys):
    # the goal (0, 3) is on the northern edge, y = 60 m: a last RK4 stage
    # lands a rounding error past it, and the run still completes
    write_fixture_grid(tmp_path, flat_grid(n=7, cell=10.0))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ROUTED_CONFIG.format(grid="grid.csv", extra="")
                   + "\n[path]\ninitial_speed = 2\n")
    code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("simulation completed: 3001 steps,")


# A small valid simulate config on a 20x20 flat grid with 2 m cells: each
# value below, and each waypoint coordinate, is a target of the property
# test.  Actuator limits are off so the base run completes (exit 0).
PROPERTY_VALUES = {
    ("weather", "slope_limit"): "0.12",
    ("weather", "steep_limit"): "0.12",
    ("path", "waypoints"): ["10.0", "10.0", "28.0", "10.0", "28.0", "28.0"],
    ("path", "turn_radius"): "3.0",
    ("path", "nominal_speed"): "2.0",
    ("path", "max_yaw_rate"): "1.0",
    ("path", "accel"): "1.0",
    ("path", "decel"): "1.0",
    ("path", "initial_speed"): "2.0",
    ("path", "max_lateral_accel"): "4.0",
    ("vehicle", "wheelbase"): "2.0",
    ("vehicle", "mass"): "1000.0",
    ("vehicle", "gravity"): "9.81",
    ("vehicle", "max_steer"): "none",
    ("vehicle", "max_steer_rate"): "none",
    ("vehicle", "max_accel"): "5.0",
    ("vehicle", "min_ctrl_speed"): "0.05",
    ("controller", "k1"): "10.0",
    ("controller", "k2"): "20.0",
    ("simulation", "dt"): "0.05",
    ("simulation", "duration"): None,   # None: the key is left out
}
# (key, index into the waypoint coordinates or None)
PROPERTY_TARGETS = [(key, None) for key in PROPERTY_VALUES if key[1] != "waypoints"] + [
    (("path", "waypoints"), i) for i in range(6)]
BAD_NUMBERS = ["0", "-1", "-0.0", "nan", "-inf", "inf", "1e300", "-1e300", "1e-300",
               "abc", "", "1,2", "0x10"]


def property_config(mutations) -> str:
    values = dict(PROPERTY_VALUES)
    values[("path", "waypoints")] = list(values[("path", "waypoints")])
    for (key, index), raw in mutations:
        if index is None:
            values[key] = raw
        else:
            values[key][index] = raw
    coords = values.pop(("path", "waypoints"))
    values[("path", "waypoints")] = "; ".join(
        f"{coords[i]},{coords[i + 1]}" for i in range(0, 6, 2))
    sections = {}
    for (section, key), raw in values.items():
        if raw is not None:
            sections.setdefault(section, []).append(f"{key} = {raw}")
    return "[terrain]\ngrid = grid.csv\n\n" + "\n".join(
        f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items())


def test_property_base_config_completes(tmp_path):
    write_fixture_grid(tmp_path, flat_grid(n=20, cell=2.0))
    (tmp_path / "run.cfg").write_text(property_config([]))
    assert main(["simulate", "--config", str(tmp_path / "run.cfg"),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_OK


def test_run_past_the_trajectory_end_arrives(tmp_path, capsys):
    # the base config's trajectory lasts 17.36 s and ends at 2 m/s; for the
    # 2.64 s after it the reference holds the end point at rest, the car
    # brakes at max_accel (5 m/s^2) to a stop 2^2 / (2 * 5) = 0.4 m past it,
    # and the run ends completed with every step logged
    write_fixture_grid(tmp_path, flat_grid(n=20, cell=2.0))
    (tmp_path / "run.cfg").write_text(property_config([(
        (("simulation", "duration"), None), "20")]))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(tmp_path / "run.cfg"),
                 "--out-dir", str(out)]) == EXIT_OK
    assert "simulation completed: 401 steps" in capsys.readouterr().out
    log = np.loadtxt(out / "log.csv", delimiter=",", skiprows=1)
    names = LOG_COLUMNS.split(",")
    t, speed = log[:, names.index("t_s")], log[:, names.index("vT")]
    end = np.hypot(log[:, names.index("x")] - 28.0, log[:, names.index("y")] - 28.0)
    assert t[-1] == pytest.approx(20.0)
    assert speed[-1] == 0.0 and end[-1] <= 0.4 + 0.01
    # once stopped the car is held: zero inputs, constant speed
    held = t > 19.5
    assert np.all(log[held, names.index("aT_cmd")] == 0.0)
    assert np.all(log[held, names.index("gamma_cmd")] == 0.0)
    assert np.ptp(speed[held]) == 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mutations=st.lists(
    st.tuples(st.sampled_from(PROPERTY_TARGETS),
              st.one_of(st.sampled_from(BAD_NUMBERS),
                        st.floats(allow_nan=True, allow_infinity=True).map(repr))),
    min_size=1, max_size=3, unique_by=lambda m: m[0]))
def test_simulate_exit_code_contract_under_config_mutation(tmp_path_factory, mutations):
    # whatever the numbers, simulate ends with a contract exit code and
    # never raises
    tmp = tmp_path_factory.mktemp("mutated")
    write_fixture_grid(tmp, flat_grid(n=20, cell=2.0))
    (tmp / "run.cfg").write_text(property_config(mutations))
    code = main(["simulate", "--config", str(tmp / "run.cfg"), "--out-dir", str(tmp / "o")])
    assert code in (EXIT_OK, EXIT_UNREACHABLE, EXIT_CONSTRAINT, EXIT_INPUT)


# ---------------------------------------------------------------------------
# unreadable and unwritable paths
# ---------------------------------------------------------------------------

NOT_UTF8 = b"\xff\xfe\x00ncols,7\n"


def route_argv(tmp_path, *extra, out=None):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    return ["route", "--grid", str(grid_path), "--start", "6,3", "--goal", "0,3",
            "--out", str(out or tmp_path / "route.csv"), *extra]


def simulate_argv(tmp_path, config_text):
    write_fixture_grid(tmp_path, ridge_grid())
    (tmp_path / "run.cfg").write_text(config_text)
    return ["simulate", "--config", str(tmp_path / "run.cfg")]


ROUTED_CONFIG = "[terrain]\ngrid = {grid}\n{extra}\n[route]\nstart = 6,3\ngoal = 0,3\n"


def config_not_utf8(tmp_path):
    (tmp_path / "run.cfg").write_bytes(NOT_UTF8 + CASE_CONFIG.encode())
    return ["simulate", "--config", str(tmp_path / "run.cfg")]


def config_is_directory(tmp_path):
    (tmp_path / "run.cfg").mkdir()
    return ["simulate", "--config", str(tmp_path / "run.cfg")]


def grid_not_utf8(tmp_path):
    (tmp_path / "bad.csv").write_bytes(NOT_UTF8)
    return simulate_argv(tmp_path, ROUTED_CONFIG.format(grid="bad.csv", extra=""))


def grid_is_directory(tmp_path):
    (tmp_path / "griddir").mkdir()
    return simulate_argv(tmp_path, ROUTED_CONFIG.format(grid="griddir", extra=""))


def water_mask_is_directory(tmp_path):
    (tmp_path / "maskdir").mkdir()
    return simulate_argv(tmp_path, ROUTED_CONFIG.format(grid="grid.csv",
                                                        extra="water_mask = maskdir\n"))


def out_dir_is_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return simulate_argv(tmp_path, ROUTED_CONFIG.format(grid="grid.csv", extra="")
                         + "\n[output]\nout_dir = taken\n")


@pytest.mark.parametrize("make_argv", [
    lambda tmp_path: route_argv(tmp_path, "--slope-limit", "-1"),
    lambda tmp_path: route_argv(tmp_path, "--slope-limit", "nan"),
    lambda tmp_path: route_argv(tmp_path, out=tmp_path),
    config_not_utf8,
    config_is_directory,
    grid_not_utf8,
    grid_is_directory,
    water_mask_is_directory,
    out_dir_is_file,
], ids=["route-slope-limit-negative", "route-slope-limit-nan", "route-out-is-directory",
        "config-not-utf8", "config-is-directory", "grid-not-utf8", "grid-is-directory",
        "water-mask-is-directory", "out-dir-is-file"])
def test_unusable_path_or_limit_exits_4(tmp_path, capsys, make_argv):
    code = main(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_route_steep_limit_must_be_positive_and_finite(tmp_path, capsys, value):
    # a flat 7x7 grid whose goal is a 50 m spike: the default steep limit
    # masks the goal, nan would mask nothing, and 0 or -1 would mask every node
    grid = flat_grid(n=7, cell=10.0)
    grid.heights[3, 3] = 50.0
    grid_path = write_fixture_grid(tmp_path, grid)
    code = main(["route", "--grid", str(grid_path), "--start", "6,0", "--goal", "3,3",
                 "--out", str(tmp_path / "route.csv"), "--steep-limit", value])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: --steep-limit: must be positive and finite")
    assert not (tmp_path / "route.csv").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_route_slope_limit_must_be_positive_and_finite(tmp_path, capsys, value):
    # a flat 7x7 grid with a 50 m ridge across row 3: no admissible route
    # crosses it, but an infinite limit would admit a 74 degree hop over it
    grid = flat_grid(n=7, cell=10.0)
    grid.heights[3, :] = 50.0
    grid_path = write_fixture_grid(tmp_path, grid)
    code = main(["route", "--grid", str(grid_path), "--start", "6,0", "--goal", "0,6",
                 "--out", str(tmp_path / "route.csv"), "--steep-limit", "1.0",
                 "--slope-limit", value])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err == f"error: --slope-limit: must be positive and finite, got {float(value)}\n"
    assert not (tmp_path / "route.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--start", "3,x", "--start: expected integers, got '3,x'"),
    ("--goal", "3", "--goal: expected 'row,col', got '3'"),
])
def test_route_malformed_node_names_the_flag(tmp_path, capsys, flag, value, message):
    # the flags go through the config's row,col parser, so the message names
    # the flag as a config message names its key
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    nodes = {"--start": "6,3", "--goal": "0,3", flag: value}
    code = main(["route", "--grid", str(grid_path), "--start", nodes["--start"],
                 "--goal", nodes["--goal"], "--out", str(tmp_path / "route.csv")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "route.csv").exists()


def start_outside_grid(tmp_path):
    argv = route_argv(tmp_path)
    argv[argv.index("--start") + 1] = "9,9"
    return argv, "start (9, 9) is outside the grid"


def start_on_a_spike(tmp_path):
    grid = flat_grid(n=7, cell=10.0)
    grid.heights[6, 3] = 50.0   # every hop from the start (6, 3) is too steep
    return (["route", "--grid", str(write_fixture_grid(tmp_path, grid)), "--start", "6,3",
             "--goal", "0,3", "--out", str(tmp_path / "route.csv")],
            "start (6, 3) is an obstacle node")


def start_on_water_where_no_hop_is_admissible(tmp_path):
    # the weights cannot be solved, but the start is named first, as a goal is
    heights = np.random.default_rng(0).uniform(0, 1, (8, 8))
    water = np.zeros((8, 8))
    water[6, 3] = 1.0
    grid, water = (write_fixture_grid(tmp_path, ElevationGrid(
        n_cols=8, n_rows=8, cell_size=1.0, origin=(0.0, 0.0), heights=values), name=name)
        for values, name in ((heights, "grid.csv"), (water, "water.csv")))
    return (["route", "--grid", str(grid), "--water", str(water), "--start", "6,3",
             "--goal", "0,3", "--slope-limit", "1e-9", "--steep-limit", "10",
             "--out", str(tmp_path / "route.csv")],
            "start (6, 3) is an obstacle node")


def config_not_found(tmp_path):
    path = tmp_path / "missing.cfg"
    return ["simulate", "--config", str(path)], f"config file not found: {path}"


def waypoint_with_three_values(tmp_path):
    cfg = write_case_config(tmp_path, CASE_CONFIG.replace("892.5,411.0", "892.5,411.0,0"))
    return (["simulate", "--config", str(cfg)],
            "path.waypoints: expected 'x,y' pairs, got '892.5,411.0,0'")


def neither_waypoints_nor_route(tmp_path):
    return (simulate_argv(tmp_path, "[terrain]\ngrid = grid.csv\n"),
            "config needs either path.waypoints or route.start and route.goal")


def run_over_max_steps(tmp_path):
    cfg = write_case_config(tmp_path, CASE_CONFIG.replace("dt = 0.01", "dt = 0.0001\n"
                                                                       "duration = 200"))
    return (["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
            f"simulation: a 200 s run at dt 0.0001 s takes more than {simulate.MAX_STEPS} "
            "steps")


@pytest.mark.parametrize("make_case", [
    start_outside_grid, start_on_a_spike, start_on_water_where_no_hop_is_admissible,
    config_not_found, waypoint_with_three_values, neither_waypoints_nor_route,
    run_over_max_steps,
], ids=["start-outside-grid", "start-is-obstacle", "start-on-water-no-weights",
        "config-not-found", "waypoint-not-a-pair", "no-waypoints-or-route", "over-max-steps"])
def test_input_error_prints_one_line_and_exits_4(tmp_path, capsys, make_case):
    argv, message = make_case(tmp_path)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"   # one line, no traceback


ROUTE_ARGS = ["route", "--grid", "g.csv", "--start", "0,0", "--goal", "1,1"]


@pytest.mark.parametrize("argv", [
    ROUTE_ARGS,
    ROUTE_ARGS + ["--out", "r.csv", "--slope-limit", "abc"],
    ROUTE_ARGS + ["--out", "r.csv", "--weather", "snow"],
    ["simulate"],
    [],
], ids=["route-without-out", "slope-limit-not-a-number", "unknown-weather",
        "simulate-without-config", "no-subcommand"])
def test_usage_error_exits_4_not_the_unreachable_code(capsys, argv):
    # argparse's own usage-error code is 2, which the contract reserves for
    # an unreachable destination
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_INPUT
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["route", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--slope-limit" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the exit-code contract under input-file mutation
# ---------------------------------------------------------------------------

# Bytes a mutation may insert: CSV structure, number syntax, and bytes that
# are not UTF-8 (a lone continuation byte, a truncated sequence, 0xff).
CSV_TOKENS = [b"", b",", b"\n", b"#", b"-", b".", b"e", b"=", b"nan", b"inf", b"1e309",
              b"0", b"1", b"-1", b"99", b"x", b" ", b"\x00", b"\x80", b"\xc3", b"\xff"]


def mutate(data: bytes, edits) -> bytes:
    """Apply (position fraction, bytes to delete, bytes to insert) edits."""
    for frac, n_delete, insert in edits:
        pos = int(frac * len(data))
        data = data[:pos] + insert + data[pos + n_delete:]
    return data


def write_mutation_base(tmp):
    """A valid grid, mask, route CSV and log CSV, and the command reading
    each: the grid and mask go to route, the route and log to render."""
    grid = ridge_grid()
    write_fixture_grid(tmp, grid)
    write_fixture_grid(tmp, ElevationGrid(
        n_cols=grid.n_cols, n_rows=grid.n_rows, cell_size=grid.cell_size,
        origin=grid.origin, heights=np.zeros(grid.heights.shape)), name="water.csv")
    assert main(route_argv(tmp, out=tmp / "route.csv")) == EXIT_OK
    rows = [[0.1 * k, 30.0 + k, 10.0 + k, 0.0, 0.5, 2.0, 0.0, 30.0 + k, 10.0 + k, 0.0,
             0.0, 0.0, 9810.0, 0.0, 0.0] for k in range(3)]
    (tmp / "log.csv").write_text(LOG_COLUMNS + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows))
    out = str(tmp / "out")
    route = route_argv(tmp, out=out)
    render = ["render", "--grid", str(tmp / "grid.csv"), "--out", out]
    return {"grid.csv": route, "water.csv": route + ["--water", str(tmp / "water.csv")],
            "route.csv": render + ["--route", str(tmp / "route.csv")],
            "log.csv": render + ["--log", str(tmp / "log.csv")]}


@pytest.mark.parametrize("name", ["grid.csv", "water.csv", "route.csv", "log.csv"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 3),
                                st.one_of(st.sampled_from(CSV_TOKENS), st.binary(max_size=3))),
                      min_size=1, max_size=3))
def test_exit_code_contract_under_csv_mutation(tmp_path_factory, name, edits):
    # whatever the bytes of an input file, its command ends with a contract
    # exit code, and an input error says so on stderr
    tmp = tmp_path_factory.mktemp("mutated")
    commands = write_mutation_base(tmp)
    target = tmp / name
    target.write_bytes(mutate(target.read_bytes(), edits))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(commands[name])
    assert code in (EXIT_OK, EXIT_UNREACHABLE, EXIT_INPUT)
    if code == EXIT_INPUT:
        assert err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_unknown_key_rejected(tmp_path):
    cfg = write_case_config(tmp_path, CASE_CONFIG + "\n[simulation]\nwarp = 9\n")
    # configparser raises duplicate section; write a clean variant instead
    cfg.write_text(CASE_CONFIG.replace("dt = 0.01", "dt = 0.01\nwarp = 9"))
    with pytest.raises(ValueError, match="unknown key simulation.warp"):
        load_run_config(str(cfg))


def test_config_unknown_section_rejected(tmp_path):
    cfg = write_case_config(tmp_path, CASE_CONFIG + "\n[telemetry]\nfoo = 1\n")
    with pytest.raises(ValueError, match=r"unknown section \[telemetry\]"):
        load_run_config(str(cfg))


def test_config_defaults_loaded(tmp_path):
    cfg = write_case_config(tmp_path)
    rc = load_run_config(str(cfg))
    assert rc.weather.kind == "dry"
    assert rc.weather.slope_limit == pytest.approx(math.tan(math.radians(6.90)))
    assert rc.vehicle.max_steer == math.inf
    assert rc.gains.k1 == 10.0
    assert rc.simulation == {"dt": 0.01}
    assert rc.waypoints[0] == (885.0, 418.5)


def test_config_weather_override(tmp_path):
    text = CASE_CONFIG + "\n[weather]\nkind = wet\nslope_limit = 0.2\n"
    cfg = write_case_config(tmp_path, text)
    rc = load_run_config(str(cfg))
    assert rc.weather.kind == "wet"
    assert rc.weather.slope_limit == 0.2
    assert rc.steep_limit == 0.2


def test_config_weather_kind_alone_sets_both_limits(tmp_path):
    # the [weather] section of every plan-and-track config: the kind's slope
    # limit is also the steep-node limit
    cfg = write_case_config(tmp_path, CASE_CONFIG + "\n[weather]\nkind = wet\n")
    rc = load_run_config(str(cfg))
    assert rc.weather == WeatherCondition("wet", WET_SLOPE_LIMIT)
    assert rc.steep_limit == WET_SLOPE_LIMIT


def lateral_accel_config(tmp_path, raw):
    return write_case_config(tmp_path, CASE_CONFIG.replace(
        "initial_speed = 2.0", f"initial_speed = 2.0\nmax_lateral_accel = {raw}"))


@pytest.mark.parametrize("raw", ["none", "inf", "Unlimited"])
def test_config_max_lateral_accel_can_be_unlimited(tmp_path, raw):
    # the default is inf, and a config can say so as the vehicle bounds do
    rc = load_run_config(str(lateral_accel_config(tmp_path, raw)))
    assert rc.trajectory.max_lateral_accel == math.inf


def test_config_zero_max_lateral_accel_exits_4(tmp_path, capsys):
    argv = ["simulate", "--config", str(lateral_accel_config(tmp_path, "0"))]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: path.max_lateral_accel: must be positive and finite, got 0\n")
    assert not (tmp_path / "o").exists()


def test_config_malformed_never_crashes(tmp_path):
    # (config text, the start of the message naming its defect); {cfg} is
    # the config's own path
    fixtures = [
        ("[terrain]\n", "terrain.grid is required"),
        ("[terrain]\ngrid = nothere.csv\n", "referenced file does not exist: nothere.csv"),
        ("[terrain]\ngrid = grid.csv\n[controller]\nk1 = -2\n",
         "controller.k1: must be positive and finite, got -2"),
        ("[terrain]\ngrid = grid.csv\n[route]\nstart = 1\n",
         "route.start: expected 'row,col', got '1'"),
        ("[terrain]\ngrid = grid.csv\n[path]\nwaypoints = 1,2\n",
         "path.waypoints: need at least two points"),
        ("[terrain]\ngrid = grid.csv\n[simulation]\nfn_policy = sometimes\n",
         "simulation.fn_policy: must be halt or warn, got 'sometimes'"),
        ("not an ini file at all\n", "{cfg}: File contains no section headers."),
        ("[terrain]\ngrid = grid.csv\n[route]\nstart = 1,1\ngoal = 2,2\n"
         "[weather]\nsteep_limit =\n", "weather.steep_limit: not a number: ''"),
        ("[terrain]\ngrid = grid.csv\n[route]\nstart = 1%,1\ngoal = 2,2\n",
         "route.start: expected integers, got '1%,1'"),
    ]
    write_fixture_grid(tmp_path, flat_grid(n=4))
    for i, (text, message) in enumerate(fixtures):
        cfg = tmp_path / f"bad{i}.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(message.format(cfg=cfg))):
            load_run_config(str(cfg))


def test_routed_simulate_prints_the_route_commands_unreachable_line(tmp_path, capsys):
    # route and simulate plan through one helper: the same line, the same exit
    line = "UNREACHABLE: no admissible path from (6, 3) to (0, 3) under slope limit 0.0484\n"
    argv = simulate_argv(tmp_path, ROUTED_CONFIG.format(
        grid="grid.csv", extra="\n[weather]\nkind = wet\n"))
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == EXIT_UNREACHABLE
    assert capsys.readouterr().out == line
    assert not (tmp_path / "o").exists()
    assert main(route_argv(tmp_path, "--weather", "wet")) == EXIT_UNREACHABLE
    assert capsys.readouterr().out == line


@pytest.mark.parametrize("error", [ValueError("bad input"), OSError("bad input")])
@pytest.mark.parametrize("owner, name, make_argv", [
    (cli, "build_obstacle_mask", lambda tmp_path: route_argv(tmp_path)),
    (simulate, "run_simulation", lambda tmp_path: simulate_argv(
        tmp_path, ROUTED_CONFIG.format(grid="grid.csv", extra="")
        + "\n[path]\ninitial_speed = 2.0\n")),
    (cli, "render_scene", lambda tmp_path: [
        "render", "--grid", str(write_fixture_grid(tmp_path, ridge_grid())),
        "--out", str(tmp_path / "scene.svg")]),
], ids=["route", "simulate", "render"])
def test_main_is_the_one_error_boundary(tmp_path, capsys, monkeypatch, owner, name,
                                        make_argv, error):
    # a ValueError or OSError from anywhere in a command is an input error:
    # one error line, exit 4, no traceback
    def fail(*args, **kwargs):
        raise error

    argv = make_argv(tmp_path)
    monkeypatch.setattr(owner, name, fail)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: bad input\n"


EXAMPLE = Path(__file__).resolve().parent.parent / "run.cfg.example"


def test_example_config_is_valid_and_names_every_key(tmp_path):
    # run.cfg.example loads beside a 7x7 terrain.csv; it names every schema
    # key as "key =" or "# key =" under its section, and no other key
    shutil.copy(EXAMPLE, tmp_path / "run.cfg")
    write_fixture_grid(tmp_path, ridge_grid(), name="terrain.csv")
    example = load_run_config(str(tmp_path / "run.cfg"))
    named, section = set(), None
    for line in EXAMPLE.read_text(encoding="utf-8").splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        key = re.match(r"#?\s*(\w+)\s*=", line)
        if header:
            section = header.group(1)
        elif key:
            named.add((section, key.group(1)))
    assert named == {(section, key) for section, keys in config._SCHEMA.items()
                     for key in keys}
    # its header says every value it sets but five is the default
    (tmp_path / "least.cfg").write_text(
        "[terrain]\ngrid = terrain.csv\n[route]\nstart = 6,3\ngoal = 0,3\n"
        "[path]\ninitial_speed = 2.0\n[output]\nout_dir = out\n")
    least = load_run_config(str(tmp_path / "least.cfg"))
    scenario_defaults = {f.name: f.default for f in dataclasses.fields(simulate.Scenario)}
    assert example.simulation.items() <= scenario_defaults.items()
    assert dataclasses.replace(example, simulation={}) == least


def test_left_out_keys_take_the_documented_defaults(tmp_path):
    # the defaults README and run.cfg.example give, from a config that sets
    # only what has none
    write_fixture_grid(tmp_path, ridge_grid())
    (tmp_path / "run.cfg").write_text(
        "[terrain]\ngrid = grid.csv\n[route]\nstart = 6,3\ngoal = 0,3\n")
    rc = load_run_config(str(tmp_path / "run.cfg"))
    assert rc.weather.kind == "dry"
    assert rc.weather.slope_limit == pytest.approx(math.tan(math.radians(6.90)), rel=1e-15)
    assert rc.steep_limit == rc.weather.slope_limit
    assert (rc.water_mask_path, rc.foliage_mask_path, rc.waypoints) == (None, None, None)
    path = rc.trajectory
    assert (path.nominal_speed, path.turn_radius, path.max_yaw_rate, path.accel, path.decel,
            path.initial_speed, path.max_lateral_accel) == (2.0, 4.0, 1.0, 1.0, 1.0, 0.0,
                                                            math.inf)
    car = rc.vehicle
    assert (car.wheelbase, car.mass, car.gravity, car.max_steer, car.max_steer_rate,
            car.max_accel, car.min_ctrl_speed) == (2.0, 1000.0, 9.81, 0.6, 2.0, math.inf, 0.05)
    assert (rc.gains.k1, rc.gains.k2) == (10.0, 20.0)
    assert rc.simulation == {}
    scenario = simulate.Scenario.__dataclass_fields__
    assert (scenario["dt"].default, scenario["duration"].default,
            scenario["fn_policy"].default) == (0.01, None, "halt")
    assert rc.out_dir == os.path.join(str(tmp_path), ".")


# ---------------------------------------------------------------------------
# render command
# ---------------------------------------------------------------------------

def test_render_grid_only(tmp_path):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    out = tmp_path / "scene.svg"
    assert main(["render", "--grid", str(grid_path), "--out", str(out)]) == EXIT_OK
    content = out.read_text()
    assert content.startswith("<?xml")
    assert "<rect" in content


def test_render_with_route(tmp_path):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    route_path = tmp_path / "route.csv"
    main(["route", "--grid", str(grid_path), "--start", "6,3", "--goal", "0,3",
          "--weather", "dry", "--out", str(route_path)])
    out = tmp_path / "scene.svg"
    assert main(["render", "--grid", str(grid_path), "--route", str(route_path),
                 "--out", str(out)]) == EXIT_OK
    assert "polyline" in out.read_text()


def test_render_with_log_traces(tmp_path):
    cfg = write_case_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
    out = tmp_path / "scene.svg"
    code = main(["render", "--grid", str(tmp_path / "grid.csv"),
                 "--log", str(out_dir / "log.csv"), "--out", str(out)])
    assert code == EXIT_OK
    content = out.read_text()
    assert "stroke-dasharray" in content       # desired trace dashed
    assert "desired (dashed)" in content
    assert "actual (solid)" in content


def test_render_polyline_points_format_each_point(tmp_path):
    # the traces are formatted from whole arrays; each point must read as
    # the per-point "{:.3f}" formatting of SvgScene.to_px: grid corners, the
    # padding beyond the edge, and points between nodes
    grid = ridge_grid()   # 7x7 nodes, 10 m cells, origin (0, 0)
    grid_path = write_fixture_grid(tmp_path, grid)
    route_path = tmp_path / "route.csv"
    assert main(["route", "--grid", str(grid_path), "--start", "6,0", "--goal", "0,6",
                 "--weather", "dry", "--out", str(route_path)]) == EXIT_OK
    xs = [0.0, 60.0, 60.0, 12.345678, 33.3333333333, -4.99, 0.0005, 59.9995]
    ys = [0.0, 60.0, 0.0, 37.5, 5.55, 64.99, 29.9995, 0.0015]
    rows = np.zeros((len(xs), len(LOG_COLUMNS.split(","))))
    names = LOG_COLUMNS.split(",")
    rows[:, names.index("x")] = xs
    rows[:, names.index("y")] = ys
    rows[:, names.index("xd")] = ys     # the desired trace runs mirrored
    rows[:, names.index("yd")] = xs
    log_path = tmp_path / "log.csv"
    log_path.write_text(LOG_COLUMNS + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    out = tmp_path / "scene.svg"
    assert main(["render", "--grid", str(grid_path), "--route", str(route_path),
                 "--log", str(log_path), "--out", str(out)]) == EXIT_OK
    drawn = re.findall(r'<polyline points="([^"]*)"', out.read_text())

    scene = SvgScene(-5.0, 65.0, -5.0, 65.0)

    def expected(points):
        return " ".join(f"{px:.3f},{py:.3f}"
                        for px, py in (scene.to_px(x, y) for x, y in points))

    route = [grid.node_position(r, c) for r, c in read_route_csv(str(route_path)).waypoints]
    assert len(route) > 2
    assert drawn == [expected(route), expected(zip(ys, xs)), expected(zip(xs, ys))]
    assert drawn[2].startswith("57.143,742.857 742.857,57.143 742.857,742.857 ")


def test_render_elevation_rects_one_per_run(tmp_path):
    # each row of the shading is one rect per run of equal elevation bins,
    # drawn before the obstacle overlay: 5 columns of 1 m at 160 px each
    heights = np.array([[0.0, 0.0, 9.0, 9.0, 0.0],
                        [9.0, 9.0, 9.0, 9.0, 9.0],
                        [0.0, 9.0, 0.0, 9.0, 0.0]])
    grid = ElevationGrid(n_cols=5, n_rows=3, cell_size=1.0, origin=(0.0, 0.0),
                         heights=heights)
    grid_path = write_fixture_grid(tmp_path, grid)
    out = tmp_path / "scene.svg"
    assert main(["render", "--grid", str(grid_path), "--out", str(out)]) == EXIT_OK
    rects = re.findall(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" '
                       r'height="160.000" fill="([^"]*)"/>', out.read_text())
    low, high = "#f1eadb", "#35503d"
    runs = [(0, 0, 2, low), (0, 2, 2, high), (0, 4, 1, low), (1, 0, 5, high)]
    runs += [(2, c, 1, high if c % 2 else low) for c in range(5)]
    assert rects[:len(runs)] == [(f"{160 * c:.3f}", f"{160 * r:.3f}", f"{160 * w:.3f}", fill)
                                 for r, c, w, fill in runs]


def test_render_log_with_non_numeric_cell_names_line(tmp_path, capsys):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    log_path = tmp_path / "log.csv"
    log_path.write_text(LOG_COLUMNS + "\n" + ",".join(["1.0"] * 14) + ",0\n"
                        + ",".join(["1.0"] * 4 + ["oops"] + ["1.0"] * 9) + ",0\n")
    code = main(["render", "--grid", str(grid_path),
                 "--log", str(log_path), "--out", str(tmp_path / "scene.svg")])
    assert code == EXIT_INPUT
    assert "log.csv:3: column 4: not a number: 'oops'" in capsys.readouterr().err


@pytest.mark.parametrize("column, layer", [("x", "actual trajectory"),
                                           ("y", "actual trajectory"),
                                           ("xd", "desired trajectory"),
                                           ("yd", "desired trajectory")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_render_rejects_non_finite_trace_coordinates(tmp_path, capsys, column, layer, value):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    names = LOG_COLUMNS.split(",")
    rows = [["10.0"] * len(names) for _ in range(3)]
    rows[1][names.index(column)] = value
    log_path = tmp_path / "log.csv"
    log_path.write_text(LOG_COLUMNS + "\n" + "".join(",".join(r) + "\n" for r in rows))
    out = tmp_path / "scene.svg"
    code = main(["render", "--grid", str(grid_path), "--log", str(log_path), "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and layer in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("column, value, layer", [("x", "70.5", "actual trajectory"),
                                                  ("yd", "-10.5", "desired trajectory")])
def test_render_rejects_a_trace_beyond_the_grid(tmp_path, capsys, column, value, layer):
    # the 7x7 grid's nodes span 0..60 m; a trace may reach one 10 m cell
    # beyond them, and this one goes further
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    names = LOG_COLUMNS.split(",")
    rows = [["10.0"] * len(names) for _ in range(3)]
    rows[1][names.index(column)] = value
    log_path = tmp_path / "log.csv"
    log_path.write_text(LOG_COLUMNS + "\n" + "".join(",".join(r) + "\n" for r in rows))
    out = tmp_path / "scene.svg"
    code = main(["render", "--grid", str(grid_path), "--log", str(log_path), "--out", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {layer} extent is inconsistent with the grid extent\n")
    assert not out.exists()


ROUTE_SUMMARY = "# total_cost=1.5,total_dist_m=20.0,mean_slope_deg=0.1,max_slope_deg=0.2"
ROUTE_HEADER = "idx,node_row,node_col,x_m,y_m,z_m,hop_slope_deg,cum_dist_m"
ROUTE_ROW = "0,6,3,30.0,0.0,0.0,0.0,0.0"


@pytest.mark.parametrize("lines, message", [
    ([ROUTE_SUMMARY.replace(",total_dist_m=20.0", ""), ROUTE_HEADER, ROUTE_ROW],
     "route.csv:1: summary lacks total_dist_m"),
    ([ROUTE_SUMMARY], "route.csv: expected the column header"),
    ([ROUTE_SUMMARY, ROUTE_HEADER, ROUTE_ROW, "1"], "route.csv:4: expected 8 values, found 1"),
    ([ROUTE_SUMMARY, "", ROUTE_HEADER, ROUTE_ROW.replace(",6,", ",6.5,")],
     "route.csv:4: node_row and node_col must be whole numbers"),
    ([ROUTE_SUMMARY, ROUTE_HEADER, ROUTE_ROW.replace(",6,", ",inf,")],
     "route.csv:3: node_row and node_col must be whole numbers"),
])
def test_render_malformed_route_exits_4_naming_the_line(tmp_path, capsys, lines, message):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    route_path = tmp_path / "route.csv"
    route_path.write_text("\n".join(lines) + "\n")
    code = main(["render", "--grid", str(grid_path), "--route", str(route_path),
                 "--out", str(tmp_path / "scene.svg")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_render_byte_identical(tmp_path):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    outs = []
    for name in ("s1.svg", "s2.svg"):
        out = tmp_path / name
        main(["render", "--grid", str(grid_path), "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_render_inconsistent_extent(tmp_path, capsys):
    # route planned on a larger grid than the one being drawn: its node
    # indices fall outside the displayed raster
    grid_a = write_fixture_grid(tmp_path, ridge_grid(), "a.csv")   # 7x7
    big = ElevationGrid(n_cols=10, n_rows=10, cell_size=10.0, origin=(0.0, 0.0),
                        heights=np.zeros((10, 10)))
    grid_b = write_fixture_grid(tmp_path, big, "b.csv")
    route_path = tmp_path / "route.csv"
    main(["route", "--grid", str(grid_b), "--start", "9,0", "--goal", "0,9",
          "--weather", "dry", "--out", str(route_path)])
    code = main(["render", "--grid", str(grid_a), "--route", str(route_path),
                 "--out", str(tmp_path / "s.svg")])
    assert code == EXIT_INPUT
    assert "inconsistent" in capsys.readouterr().err
