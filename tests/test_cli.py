import math

import numpy as np
import pytest

from offroad.cli import (
    EXIT_CONSTRAINT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNREACHABLE,
    main,
)
from offroad.config import ConfigError, load_run_config
from offroad.global_route import read_route_csv
from offroad.simulate import LOG_COLUMNS
from offroad.terrain import ElevationGrid, write_grid_csv

from conftest import flat_grid, grid_from_function


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


@pytest.mark.parametrize("edit, message", [
    (("mass = 1000.0", "mass = inf"), "vehicle.mass"),
    (("892.5,411.0", "x,411.0"), "path.waypoints"),
    (("892.5,411.0", "992.5,411.0"), "outside the grid extent"),
    (("initial_speed = 2.0", "initial_speed = nan"), "path.initial_speed"),
    (("initial_speed = 2.0", "initial_speed = -1"), "path.initial_speed"),
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


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_unknown_key_rejected(tmp_path):
    cfg = write_case_config(tmp_path, CASE_CONFIG + "\n[simulation]\nwarp = 9\n")
    # configparser raises duplicate section; write a clean variant instead
    cfg.write_text(CASE_CONFIG.replace("dt = 0.01", "dt = 0.01\nwarp = 9"))
    with pytest.raises(ConfigError, match="unknown key simulation.warp"):
        load_run_config(str(cfg))


def test_config_unknown_section_rejected(tmp_path):
    cfg = write_case_config(tmp_path, CASE_CONFIG + "\n[telemetry]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[telemetry\]"):
        load_run_config(str(cfg))


def test_config_defaults_loaded(tmp_path):
    cfg = write_case_config(tmp_path)
    rc = load_run_config(str(cfg))
    assert rc.weather.kind == "dry"
    assert rc.weather.slope_limit == pytest.approx(math.tan(math.radians(6.90)))
    assert rc.vehicle.max_steer is None
    assert rc.gains.k1 == 10.0
    assert rc.dt == 0.01
    assert rc.waypoints[0] == (885.0, 418.5)


def test_config_weather_override(tmp_path):
    text = CASE_CONFIG + "\n[weather]\nkind = wet\nslope_limit = 0.2\n"
    cfg = write_case_config(tmp_path, text)
    rc = load_run_config(str(cfg))
    assert rc.weather.kind == "wet"
    assert rc.weather.slope_limit == 0.2


def test_config_malformed_never_crashes(tmp_path):
    fixtures = [
        "[terrain]\n",                             # missing grid
        "[terrain]\ngrid = nothere.csv\n",         # missing file
        "[terrain]\ngrid = grid.csv\n[controller]\nk1 = -2\n",
        "[terrain]\ngrid = grid.csv\n[route]\nstart = 1\n",
        "[terrain]\ngrid = grid.csv\n[path]\nwaypoints = 1,2\n",
        "[terrain]\ngrid = grid.csv\n[simulation]\nfn_policy = sometimes\n",
        "not an ini file at all\n",
    ]
    write_fixture_grid(tmp_path, flat_grid(n=4))
    for i, text in enumerate(fixtures):
        cfg = tmp_path / f"bad{i}.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError):
            load_run_config(str(cfg))


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


def test_render_log_with_non_numeric_cell_names_line(tmp_path, capsys):
    grid_path = write_fixture_grid(tmp_path, ridge_grid())
    log_path = tmp_path / "log.csv"
    log_path.write_text(LOG_COLUMNS + "\n" + ",".join(["1.0"] * 14) + ",0\n"
                        + ",".join(["1.0"] * 4 + ["oops"] + ["1.0"] * 9) + ",0\n")
    code = main(["render", "--grid", str(grid_path),
                 "--log", str(log_path), "--out", str(tmp_path / "scene.svg")])
    assert code == EXIT_INPUT
    assert "log.csv:3: column 4: not a number: 'oops'" in capsys.readouterr().err


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
