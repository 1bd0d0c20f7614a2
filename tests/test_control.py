import math

import numpy as np
import pytest

from offroad.control import (
    GainConfig,
    commanded_planar_accel,
    control_step,
)
from offroad.local_path import (
    DesiredSample,
    DesiredTrajectory,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
)
from offroad.terrain import SurfaceModel, surface_lift
from offroad.vehicle import VehicleParams, VehicleState

from conftest import flat_grid, grid_from_function

FREE = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=None, max_steer_rate=None)


def make_sample(pos, vel, acc):
    return DesiredSample(position=np.asarray(pos, float),
                         velocity=np.asarray(vel, float),
                         acceleration=np.asarray(acc, float),
                         arc_length=0.0, segment_index=0, phase="CV")


# ---------------------------------------------------------------------------
# Gains
# ---------------------------------------------------------------------------

def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        GainConfig(k1=0.0, k2=20.0)
    with pytest.raises(ValueError):
        GainConfig(k1=10.0, k2=-1.0)


def test_case_study_gain_poles():
    p1, p2 = GainConfig(k1=10.0, k2=20.0).poles()
    assert p1.real == pytest.approx(-5 + math.sqrt(5), abs=1e-12)
    assert p2.real == pytest.approx(-5 - math.sqrt(5), abs=1e-12)
    assert p1.imag == 0.0 and p2.imag == 0.0


# ---------------------------------------------------------------------------
# Planar acceleration command
# ---------------------------------------------------------------------------

def test_command_zero_error_zero_feedforward():
    sample = make_sample([1.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    ax, ay = commanded_planar_accel(np.array([1.0, 2.0]), np.array([2.0, 0.0]),
                                    sample, GainConfig(10.0, 20.0))
    assert (ax, ay) == (0.0, 0.0)


def test_command_position_error_substitution():
    # desired 1 m ahead in x, velocities equal: only the k2 term fires
    sample = make_sample([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    ax, ay = commanded_planar_accel(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                                    sample, GainConfig(10.0, 20.0))
    assert ax == pytest.approx(20.0)
    assert ay == 0.0


def test_command_includes_feedforward_and_velocity_term():
    sample = make_sample([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0])
    ax, ay = commanded_planar_accel(np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                                    sample, GainConfig(10.0, 20.0))
    assert ax == pytest.approx(0.5 + 10.0 * 1.0)
    assert ay == 0.0


# ---------------------------------------------------------------------------
# Vertical acceleration from the surface constraint
# ---------------------------------------------------------------------------

def test_vertical_accel_flat(flat_surface):
    assert surface_lift(flat_surface.eval(5, 5), 3.0, -1.0, 2.0, 4.0)[1] == pytest.approx(0.0, abs=1e-12)


def test_vertical_accel_plane():
    surf = SurfaceModel(grid_from_function(lambda x, y: 0.1 * x, n_cols=12, n_rows=12))
    assert surface_lift(surf.eval(5, 5), 1.0, 0.0, 2.0, 0.0)[1] == pytest.approx(0.2, abs=1e-9)


def test_vertical_accel_bowl_curvature_term():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: (x ** 2 + y ** 2) / 2.0,
        n_cols=25, n_rows=25, origin=(-12.0, -12.0)))
    # at the bowl bottom the slope terms vanish; f_xx * x_dot^2 = 1
    _, z_ddot = surface_lift(surf.eval(0.0, 0.0), 1.0, 0.0, 0.0, 0.0)
    assert z_ddot == pytest.approx(1.0, abs=1e-9)


def test_vertical_accel_matches_logged_second_difference():
    # drive a simulated car over a smooth surface and compare the logged
    # height's second difference against the constraint formula
    from offroad.simulate import Scenario, run_simulation
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.4 * np.sin(x / 6.0) + 0.2 * np.cos(y / 5.0),
        n_cols=40, n_rows=40, cell=2.0))
    geom = plan_geometry([(8.0, 40.0), (70.0, 40.0)], rho=4.0)
    cfg = TrajectoryConfig(nominal_speed=3.0, turn_radius=4.0, max_yaw_rate=1.0,
                           initial_speed=3.0)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    log = run_simulation(Scenario(surface=surf, trajectory=traj,
                                  gains=GainConfig(10.0, 20.0), params=FREE, dt=0.01))
    assert log.status == "completed"
    dt = log.dt
    z_dd_fd = (log.z[2:] - 2 * log.z[1:-1] + log.z[:-2]) / dt ** 2
    x_d = (log.x[2:] - log.x[:-2]) / (2 * dt)
    y_d = (log.y[2:] - log.y[:-2]) / (2 * dt)
    x_dd = (log.x[2:] - 2 * log.x[1:-1] + log.x[:-2]) / dt ** 2
    y_dd = (log.y[2:] - 2 * log.y[1:-1] + log.y[:-2]) / dt ** 2
    for i in range(50, len(z_dd_fd) - 50, 97):
        _, za = surface_lift(surf.eval(log.x[1 + i], log.y[1 + i]),
                             x_d[i], y_d[i], x_dd[i], y_dd[i])
        assert za == pytest.approx(z_dd_fd[i], abs=1e-3)


# ---------------------------------------------------------------------------
# Full control step
# ---------------------------------------------------------------------------

def straight_reference(surface, y=40.0, speed=2.0):
    geom = plan_geometry([(5.0, y), (70.0, y)], rho=4.0)
    cfg = TrajectoryConfig(nominal_speed=speed, turn_radius=4.0, max_yaw_rate=1.0,
                           initial_speed=speed)
    return DesiredTrajectory(geom, build_speed_profile(geom, cfg), surface)


def test_control_step_equilibrium_on_reference():
    surf = SurfaceModel(flat_grid(n=40, cell=2.0))
    traj = straight_reference(surf)
    state = VehicleState(x=5.0, y=40.0, psi=0.0, speed=2.0, steer=0.0)
    control, clamped = control_step(state, traj.sample(0.0), GainConfig(10.0, 20.0),
                                    surf, FREE)
    assert abs(control.accel) < 1e-9
    assert abs(control.steer_rate) < 1e-9
    assert not clamped


def test_control_step_arc_feedforward():
    # on-reference at an arc at v=2, radius 4: 1 m/s^2 centripetal demand is
    # realized through the steering rate, speed * |gamma| = v^2 / radius
    surf = SurfaceModel(flat_grid(n=40, cell=3.0))
    geom = plan_geometry([(10.0, 60.0), (60.0, 60.0), (60.0, 10.0)], rho=4.0)
    cfg = TrajectoryConfig(nominal_speed=2.0, turn_radius=4.0, max_yaw_rate=1.0,
                           initial_speed=2.0)
    traj = DesiredTrajectory(geom, build_speed_profile(geom, cfg), surf)
    s_mid = (geom.breakpoints[1] + geom.breakpoints[2]) / 2
    t_mid = traj.profile.time_at_s(s_mid)
    sample = traj.sample(t_mid)
    tangent = sample.velocity[:2] / np.linalg.norm(sample.velocity[:2])
    state = VehicleState(x=sample.position[0], y=sample.position[1],
                         psi=math.atan2(tangent[1], tangent[0]),
                         speed=2.0, steer=0.0)
    control, _ = control_step(state, sample, GainConfig(10.0, 20.0), surf, FREE)
    assert np.linalg.norm(sample.acceleration[:2]) == pytest.approx(1.0, abs=1e-9)
    assert abs(control.accel) < 1e-9
    assert state.speed * abs(control.steer_rate) == pytest.approx(1.0, abs=1e-9)


def test_control_step_clamping_flagged():
    params = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=0.6, max_steer_rate=2.0)
    surf = SurfaceModel(flat_grid(n=40, cell=2.0))
    traj = straight_reference(surf)
    # large lateral offset demands more steering rate than the actuator allows
    state = VehicleState(x=5.0, y=42.0, psi=0.0, speed=2.0, steer=0.0)
    control, clamped = control_step(state, traj.sample(0.0), GainConfig(10.0, 20.0),
                                    surf, params)
    assert clamped
    assert abs(control.steer_rate) == params.max_steer_rate


def test_closed_loop_offset_decay_matches_linear_error_dynamics():
    # with the exact plant on flat ground the planar error follows the
    # second-order error ODE; for a 0.5 m offset and matched velocity the
    # closed-form solution is the two-mode overdamped decay
    from offroad.simulate import Scenario, run_simulation
    surf = SurfaceModel(flat_grid(n=40, cell=2.0))
    traj = straight_reference(surf, speed=3.0)
    gains = GainConfig(10.0, 20.0)
    init = VehicleState(x=5.0, y=40.5, psi=0.0, speed=3.0, steer=0.0)
    log = run_simulation(Scenario(surface=surf, trajectory=traj, gains=gains,
                                  params=FREE, dt=0.01, initial_state=init))
    assert log.status == "completed"
    lam1, lam2 = 5 - math.sqrt(5), 5 + math.sqrt(5)
    analytic = 0.5 * np.abs(lam2 * np.exp(-lam1 * log.t)
                            - lam1 * np.exp(-lam2 * log.t)) / (lam2 - lam1)
    assert np.max(np.abs(log.err - analytic)) < 1e-6
    # monotone decrease throughout (overdamped, zero initial velocity error)
    assert np.all(np.diff(log.err[log.err > 1e-10]) <= 1e-12)
    # asymptotic envelope decays at the slow pole
    sel = (log.t >= 1.0) & (log.t <= 2.5)
    A = np.vstack([log.t[sel], np.ones(sel.sum())]).T
    slope = np.linalg.lstsq(A, np.log(log.err[sel]), rcond=None)[0][0]
    assert abs(slope + lam1) / lam1 < 0.05
