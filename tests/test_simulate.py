import math

import numpy as np
import pytest

from offroad.local_path import (
    DesiredTrajectory,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
)
from offroad.simulate import (
    LOG_COLUMNS,
    STATUS_COMPLETED,
    STATUS_NORMAL_FORCE,
    Scenario,
    TrajectoryLog,
    aligned_initial_state,
    read_log_csv,
    run_simulation,
    tracking_metrics,
    write_log_csv,
)
from offroad.terrain import SurfaceModel
from offroad.vehicle import VehicleParams, VehicleState, frame_and_motion

from conftest import FREE, GAINS, flat_grid, grid_from_function, time_at_arc_length

CASE_WPTS = [(885.0, 418.5), (892.5, 411.0), (885.0, 403.5)]


def case_study_surface():
    # gently rolling, nearly flat terrain around the case-study waypoints
    return SurfaceModel(grid_from_function(
        lambda x, y: 0.05 * np.sin(x / 30.0) * np.cos(y / 25.0),
        n_cols=41, n_rows=41, cell=2.0, origin=(850.0, 370.0)))


def case_study_trajectory(surface):
    geom = plan_geometry(CASE_WPTS, rho=4.0)
    cfg = TrajectoryConfig(nominal_speed=2.0, turn_radius=4.0, max_yaw_rate=1.0,
                           initial_speed=2.0)
    return DesiredTrajectory(geom, build_speed_profile(geom, cfg), surface)


def straight_scenario(initial_state=None, speed=2.0, dt=0.01, n=40, cell=2.0):
    surf = SurfaceModel(flat_grid(n=n, cell=cell))
    geom = plan_geometry([(5.0, 40.0), (70.0, 40.0)], rho=4.0)
    cfg = TrajectoryConfig(nominal_speed=speed, turn_radius=4.0, max_yaw_rate=1.0,
                           initial_speed=speed)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    return Scenario(trajectory=traj, gains=GAINS, params=FREE,
                    dt=dt, initial_state=initial_state)


# ---------------------------------------------------------------------------
# Basic runs
# ---------------------------------------------------------------------------

def test_equilibrium_tracking_straight():
    log = run_simulation(straight_scenario())
    assert log.status == STATUS_COMPLETED
    assert tracking_metrics(log).max_err < 1e-6


def test_aligned_initial_state_matches_reference_velocity():
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    state = aligned_initial_state(traj)
    v = np.array(frame_and_motion(surf, *state, FREE)[15:18])
    ref = traj.sample(np.zeros(1)).velocity[0]
    assert np.max(np.abs(v - ref)) < 1e-9


def test_case_study_scenario_tracks_tightly():
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    log = run_simulation(Scenario(trajectory=traj, gains=GAINS,
                                  params=FREE, dt=0.01))
    assert log.status == STATUS_COMPLETED
    m = tracking_metrics(log)
    assert m.max_err <= 0.15
    assert m.min_normal_force > 0.0
    # the worst tracking happens around the turn, not on the open straights
    t_entry = time_at_arc_length(traj.profile, traj.geometry.breakpoints[1])
    t_exit = time_at_arc_length(traj.profile, traj.geometry.breakpoints[2])
    assert t_entry - 0.5 <= m.t_max_err <= t_exit + 0.5


def test_logs_record_every_step():
    scenario = straight_scenario()
    log = run_simulation(scenario)
    duration = scenario.trajectory.duration
    assert len(log) == int(math.floor(duration / scenario.dt + 1e-9)) + 1
    assert np.all(np.diff(log["t_s"]) > 0)
    assert log["t_s"][0] == 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_perfect_tracking():
    log = run_simulation(straight_scenario())
    m = tracking_metrics(log)
    assert m.max_err < 1e-6


def test_metrics_spike_bookkeeping():
    log = run_simulation(straight_scenario())
    log["errE"][37] = 0.2
    m = tracking_metrics(log)
    assert m.max_err == 0.2
    assert m.t_max_err == pytest.approx(log["t_s"][37])


def test_metrics_empty_log_rejected():
    log = run_simulation(straight_scenario())
    with pytest.raises(ValueError):
        tracking_metrics(TrajectoryLog(log.table[:0], log.status))


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def hill_crest_scenario(fn_policy="halt"):
    # cresting a sharp hill at speed: the required downward acceleration
    # exceeds what gravity can supply, so the contact force crosses zero
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 6.0 * np.exp(-((x - 30.0) ** 2) / 60.0),
        n_cols=31, n_rows=31, cell=2.0))
    geom = plan_geometry([(6.0, 30.0), (54.0, 30.0)], rho=4.0)
    cfg = TrajectoryConfig(nominal_speed=8.0, turn_radius=4.0, max_yaw_rate=3.0,
                           initial_speed=8.0)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    return Scenario(trajectory=traj, gains=GAINS, params=FREE,
                    dt=0.01, fn_policy=fn_policy)


def test_normal_force_violation_halts():
    log = run_simulation(hill_crest_scenario())
    assert log.status == STATUS_NORMAL_FORCE
    assert log["FN"][-1] <= 0.0
    assert log["FN"][0] > 0.0
    assert len(log) > 100  # partial log up to the violation


def test_normal_force_violation_warn_continues():
    log = run_simulation(hill_crest_scenario(fn_policy="warn"))
    assert log.status == STATUS_NORMAL_FORCE
    halted = run_simulation(hill_crest_scenario())
    assert len(log) > len(halted)


def test_straight_run_builds_only_the_spline_columns_it_crosses():
    # a 200-column rolling grid with 1 m cells; the reference runs from the
    # middle of cell column 50 to the middle of column 60
    grid = grid_from_function(lambda x, y: 0.2 * np.sin(x / 7.0) * np.cos(y / 5.0),
                              n_cols=200, n_rows=20, cell=1.0)
    surf = SurfaceModel(grid)
    assert not surf._columns
    geom = plan_geometry([(50.5, 9.5), (60.5, 9.5)], rho=2.0)
    cfg = TrajectoryConfig(nominal_speed=2.0, turn_radius=2.0, max_yaw_rate=1.0,
                           initial_speed=2.0)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    log = run_simulation(Scenario(trajectory=traj, gains=GAINS,
                                  params=FREE, dt=0.01))
    assert log.status == STATUS_COMPLETED
    assert tracking_metrics(log).max_err < 0.01
    assert sorted(surf._columns) == list(range(50, 61))
    # records for the built columns only: 19 cells of 28 floats each
    assert sum(r.nbytes for r in surf._columns.values()) == 11 * 19 * 28 * 8


def test_leaving_grid_reported():
    # reference runs to the eastern edge of a small grid; the car follows it
    # out of the interpolation domain
    surf = SurfaceModel(flat_grid(n=12, cell=2.0))
    geom = plan_geometry([(2.0, 11.0), (21.9, 11.0)], rho=2.0)
    cfg = TrajectoryConfig(nominal_speed=3.0, turn_radius=2.0, max_yaw_rate=1.0,
                           initial_speed=3.0)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    scenario = Scenario(trajectory=traj, gains=GAINS,
                        params=FREE, dt=0.01,
                        initial_state=VehicleState(x=2.0, y=11.0, psi=0.0,
                                                   speed=3.0, steer=0.0))
    log = run_simulation(scenario)
    # stage evaluations eventually query x > 22 which is outside the grid
    assert log.status in ("left_grid", "completed")
    if log.status == "completed":
        assert log["x"][-1] <= 22.0


def test_scenario_validation():
    scenario = straight_scenario()
    with pytest.raises(ValueError):
        Scenario(trajectory=scenario.trajectory,
                 gains=GAINS, params=FREE, dt=0.0)
    with pytest.raises(ValueError):
        Scenario(trajectory=scenario.trajectory,
                 gains=GAINS, params=FREE, dt=0.01, duration=1.0)
    with pytest.raises(ValueError):
        Scenario(trajectory=scenario.trajectory,
                 gains=GAINS, params=FREE, dt=0.01, fn_policy="ignore")


# ---------------------------------------------------------------------------
# Determinism and discretization robustness
# ---------------------------------------------------------------------------

def test_identical_scenarios_identical_logs():
    surf = case_study_surface()
    log_a = run_simulation(Scenario(trajectory=case_study_trajectory(surf),
                                    gains=GAINS, params=FREE, dt=0.01))
    log_b = run_simulation(Scenario(trajectory=case_study_trajectory(surf),
                                    gains=GAINS, params=FREE, dt=0.01))
    assert log_a.table.tobytes() == log_b.table.tobytes()


def test_log_csv_deterministic(tmp_path):
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log_csv(run_simulation(Scenario(trajectory=traj,
                                          gains=GAINS, params=FREE, dt=0.01)), str(pa))
    write_log_csv(run_simulation(Scenario(trajectory=traj,
                                          gains=GAINS, params=FREE, dt=0.01)), str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    header = pa.read_text().splitlines()[0]
    assert header == "t_s,x,y,z,psi,vT,delta,xd,yd,zd,aT_cmd,gamma_cmd,FN,errE,clamped"


def test_log_csv_reads_back_as_the_log_bit_for_bit(tmp_path):
    # the in-memory log and log.csv are one table: every column read back
    # from the file is the log's own column, clamped flags as 0/1.  A slow
    # steering actuator clamps part of the case-study turn.
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    slow_steer = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer_rate=0.3)
    log = run_simulation(Scenario(trajectory=traj, gains=GAINS,
                                  params=slow_steer, dt=0.01))
    assert log.status == STATUS_COMPLETED and 0 < log["clamped"].sum() < len(log)
    path = tmp_path / "log.csv"
    write_log_csv(log, str(path))
    read = read_log_csv(str(path))
    assert list(read) == LOG_COLUMNS.split(",")
    for name, column in read.items():
        assert column.tobytes() == log[name].tobytes(), name
    assert set(read["clamped"].tolist()) == {0.0, 1.0}


def test_dt_refinement_stability():
    # a speed-perturbed start gives a discretization-independent error peak:
    # halving dt moves the max error by well under 2 percent
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    base = aligned_initial_state(traj)
    perturbed = VehicleState(x=base.x, y=base.y, psi=base.psi,
                             speed=base.speed + 0.3, steer=0.0)
    maxes = {}
    for dt in (0.01, 0.005):
        log = run_simulation(Scenario(trajectory=traj, gains=GAINS,
                                      params=FREE, dt=dt, initial_state=perturbed))
        maxes[dt] = tracking_metrics(log).max_err
    rel_change = abs(maxes[0.005] - maxes[0.01]) / maxes[0.01]
    assert rel_change < 0.02


# ---------------------------------------------------------------------------
# Default actuator limits
# ---------------------------------------------------------------------------

def test_case_study_completes_under_default_limits():
    # the shipped limits (max_steer 0.6 rad, max_steer_rate 2 rad/s) leave the
    # turn trackable: the run reaches the trajectory end within the bound
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    params = VehicleParams()
    log = run_simulation(Scenario(trajectory=traj, gains=GAINS,
                                  params=params, dt=0.01))
    assert log.status == STATUS_COMPLETED
    assert len(log) == int(math.floor(traj.duration / 0.01 + 1e-9)) + 1
    assert np.max(np.abs(log["delta"])) <= params.max_steer
    assert tracking_metrics(log).max_err <= 0.15
