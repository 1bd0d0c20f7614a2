import math

import numpy as np
import pytest

from offroad.control import GainConfig
from offroad.local_path import (
    DesiredTrajectory,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
)
from offroad.simulate import (
    STATUS_COMPLETED,
    STATUS_NORMAL_FORCE,
    Scenario,
    aligned_initial_state,
    run_simulation,
    tracking_metrics,
    write_log_csv,
)
from offroad.terrain import SurfaceModel
from offroad.vehicle import VehicleParams, VehicleState, frame_and_motion

from conftest import flat_grid, grid_from_function

FREE = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=None, max_steer_rate=None)
GAINS = GainConfig(k1=10.0, k2=20.0)

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
    return Scenario(surface=surf, trajectory=traj, gains=GAINS, params=FREE,
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
    state = aligned_initial_state(traj, surf)
    v = frame_and_motion(surf, state, FREE).r_dot
    ref = traj.sample(0.0).velocity
    assert np.max(np.abs(v - ref)) < 1e-9


def test_case_study_scenario_tracks_tightly():
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    log = run_simulation(Scenario(surface=surf, trajectory=traj, gains=GAINS,
                                  params=FREE, dt=0.01))
    assert log.status == STATUS_COMPLETED
    m = tracking_metrics(log)
    assert m.max_err <= 0.15
    assert m.min_normal_force > 0.0
    # the worst tracking happens around the turn, not on the open straights
    t_entry = traj.profile.time_at_s(traj.geometry.breakpoints[1])
    t_exit = traj.profile.time_at_s(traj.geometry.breakpoints[2])
    assert t_entry - 0.5 <= m.t_max_err <= t_exit + 0.5


def test_logs_record_every_step():
    scenario = straight_scenario()
    log = run_simulation(scenario)
    duration = scenario.trajectory.duration
    assert len(log) == int(math.floor(duration / scenario.dt + 1e-9)) + 1
    assert np.all(np.diff(log.t) > 0)
    assert log.t[0] == 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_perfect_tracking():
    log = run_simulation(straight_scenario())
    m = tracking_metrics(log)
    assert m.max_err < 1e-6
    assert m.mean_err <= m.max_err
    assert "line" in m.max_err_by_kind


def test_metrics_spike_bookkeeping():
    log = run_simulation(straight_scenario())
    log.err[37] = 0.2
    m = tracking_metrics(log)
    assert m.max_err == 0.2
    assert m.t_max_err == pytest.approx(log.t[37])


def test_metrics_empty_log_rejected():
    log = run_simulation(straight_scenario())
    import dataclasses
    empty = dataclasses.replace(
        log, **{k: np.array([]) for k in
                ("t", "x", "y", "z", "psi", "speed", "steer", "xd", "yd", "zd",
                 "accel_cmd", "steer_rate_cmd", "fn", "err", "clamped", "seg_kind")})
    with pytest.raises(ValueError):
        tracking_metrics(empty)


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
    return Scenario(surface=surf, trajectory=traj, gains=GAINS, params=FREE,
                    dt=0.01, fn_policy=fn_policy)


def test_normal_force_violation_halts():
    log = run_simulation(hill_crest_scenario())
    assert log.status == STATUS_NORMAL_FORCE
    assert log.fn[-1] <= 0.0
    assert log.fn[0] > 0.0
    assert len(log) > 100  # partial log up to the violation


def test_normal_force_violation_warn_continues():
    log = run_simulation(hill_crest_scenario(fn_policy="warn"))
    assert log.status == STATUS_NORMAL_FORCE
    halted = run_simulation(hill_crest_scenario())
    assert len(log) > len(halted)


def test_leaving_grid_reported():
    # reference runs to the eastern edge of a small grid; the car follows it
    # out of the interpolation domain
    surf = SurfaceModel(flat_grid(n=12, cell=2.0))
    geom = plan_geometry([(2.0, 11.0), (21.9, 11.0)], rho=2.0)
    cfg = TrajectoryConfig(nominal_speed=3.0, turn_radius=2.0, max_yaw_rate=1.0,
                           initial_speed=3.0)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    big_surface = SurfaceModel(flat_grid(n=12, cell=2.0))
    scenario = Scenario(surface=big_surface, trajectory=traj, gains=GAINS,
                        params=FREE, dt=0.01,
                        initial_state=VehicleState(x=2.0, y=11.0, psi=0.0,
                                                   speed=3.0, steer=0.0))
    log = run_simulation(scenario)
    # stage evaluations eventually query x > 22 which is outside the grid
    assert log.status in ("left_grid", "completed")
    if log.status == "completed":
        assert log.x[-1] <= 22.0


def test_scenario_validation():
    scenario = straight_scenario()
    with pytest.raises(ValueError):
        Scenario(surface=scenario.surface, trajectory=scenario.trajectory,
                 gains=GAINS, params=FREE, dt=0.0)
    with pytest.raises(ValueError):
        Scenario(surface=scenario.surface, trajectory=scenario.trajectory,
                 gains=GAINS, params=FREE, dt=0.01, duration=1.0)
    with pytest.raises(ValueError):
        Scenario(surface=scenario.surface, trajectory=scenario.trajectory,
                 gains=GAINS, params=FREE, dt=0.01, fn_policy="ignore")


# ---------------------------------------------------------------------------
# Determinism and discretization robustness
# ---------------------------------------------------------------------------

def test_identical_scenarios_identical_logs():
    surf = case_study_surface()
    log_a = run_simulation(Scenario(surface=surf, trajectory=case_study_trajectory(surf),
                                    gains=GAINS, params=FREE, dt=0.01))
    log_b = run_simulation(Scenario(surface=surf, trajectory=case_study_trajectory(surf),
                                    gains=GAINS, params=FREE, dt=0.01))
    for name in ("t", "x", "y", "z", "psi", "speed", "steer", "err", "fn"):
        assert np.array_equal(getattr(log_a, name), getattr(log_b, name))


def test_log_csv_deterministic(tmp_path):
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log_csv(run_simulation(Scenario(surface=surf, trajectory=traj,
                                          gains=GAINS, params=FREE, dt=0.01)), str(pa))
    write_log_csv(run_simulation(Scenario(surface=surf, trajectory=traj,
                                          gains=GAINS, params=FREE, dt=0.01)), str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    header = pa.read_text().splitlines()[0]
    assert header == "t_s,x,y,z,psi,vT,delta,xd,yd,zd,aT_cmd,gamma_cmd,FN,errE,clamped"


def test_dt_refinement_stability():
    # a speed-perturbed start gives a discretization-independent error peak:
    # halving dt moves the max error by well under 2 percent
    surf = case_study_surface()
    traj = case_study_trajectory(surf)
    base = aligned_initial_state(traj, surf)
    perturbed = VehicleState(x=base.x, y=base.y, psi=base.psi,
                             speed=base.speed + 0.3, steer=0.0)
    maxes = {}
    for dt in (0.01, 0.005):
        log = run_simulation(Scenario(surface=surf, trajectory=traj, gains=GAINS,
                                      params=FREE, dt=dt, initial_state=perturbed))
        maxes[dt] = tracking_metrics(log).max_err
    rel_change = abs(maxes[0.005] - maxes[0.01]) / maxes[0.01]
    assert rel_change < 0.02
