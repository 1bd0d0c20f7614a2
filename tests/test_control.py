import math

import numpy as np
import pytest

from offroad.control import GainConfig, control_step, reference_rows
from offroad.local_path import (
    DesiredTrajectory,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
)
from offroad.terrain import SurfaceModel, surface_lift
from offroad.vehicle import VehicleParams, VehicleState, frame_and_motion

from conftest import FREE, flat_grid, grid_from_function, time_at_arc_length


def row(pos, vel, acc):
    """A reference row (see reference_rows) from planar position, velocity
    and acceleration."""
    return [pos[0], pos[1], 0.0, vel[0], vel[1], acc[0], acc[1], 0.0]


def step(surface, state, ref, gains=GainConfig(10.0, 20.0), params=FREE):
    motion = frame_and_motion(surface, *state, params)
    return control_step(motion, state, ref, gains, params)


def sampled_row(traj, t):
    return reference_rows(traj.sample(np.array([t])), np.array([False]))[0]


# ---------------------------------------------------------------------------
# Gains
# ---------------------------------------------------------------------------

def test_gains_must_be_positive():
    with pytest.raises(ValueError):
        GainConfig(k1=0.0, k2=20.0)
    with pytest.raises(ValueError):
        GainConfig(k1=10.0, k2=-1.0)


# ---------------------------------------------------------------------------
# Planar acceleration command
# ---------------------------------------------------------------------------

# On flat ground, heading east with zero steer, the inputs are the planar
# command itself: a_T = a_x and gamma = a_y / speed.

def test_command_zero_error_zero_feedforward(flat_surface):
    (a_t, gamma), _ = step(flat_surface, VehicleState(1.0, 2.0, 0.0, 2.0, 0.0),
                           row([1.0, 2.0], [2.0, 0.0], [0.0, 0.0]))
    assert (a_t, gamma) == (0.0, 0.0)


def test_command_position_error_substitution(flat_surface):
    # desired 1 m ahead in x, velocities equal: only the k2 term fires
    (a_t, gamma), _ = step(flat_surface, VehicleState(5.0, 5.0, 0.0, 2.0, 0.0),
                           row([6.0, 5.0], [2.0, 0.0], [0.0, 0.0]))
    assert a_t == pytest.approx(20.0)
    assert gamma == 0.0


def test_command_includes_feedforward_and_velocity_term(flat_surface):
    (a_t, gamma), _ = step(flat_surface, VehicleState(5.0, 5.0, 0.0, 2.0, 0.0),
                           row([5.0, 5.0], [3.0, 0.0], [0.5, 0.0]))
    assert a_t == pytest.approx(0.5 + 10.0 * 1.0)
    assert gamma == 0.0


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
    scenario = Scenario(trajectory=traj,
                        gains=GainConfig(10.0, 20.0), params=FREE, dt=0.01)
    log = run_simulation(scenario)
    assert log.status == "completed"
    dt = scenario.dt
    x, y, z = log["x"], log["y"], log["z"]
    z_dd_fd = (z[2:] - 2 * z[1:-1] + z[:-2]) / dt ** 2
    x_d = (x[2:] - x[:-2]) / (2 * dt)
    y_d = (y[2:] - y[:-2]) / (2 * dt)
    x_dd = (x[2:] - 2 * x[1:-1] + x[:-2]) / dt ** 2
    y_dd = (y[2:] - 2 * y[1:-1] + y[:-2]) / dt ** 2
    for i in range(50, len(z_dd_fd) - 50, 97):
        _, za = surface_lift(surf.eval(x[1 + i], y[1 + i]),
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
    (a_t, gamma), clamped = step(surf, state, sampled_row(traj, 0.0))
    assert abs(a_t) < 1e-9
    assert abs(gamma) < 1e-9
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
    t_mid = time_at_arc_length(traj.profile, s_mid)
    sample = traj.sample(np.array([t_mid]))
    ref = sampled_row(traj, t_mid)
    tangent = sample.velocity[0, :2] / np.linalg.norm(sample.velocity[0, :2])
    state = VehicleState(x=sample.position[0, 0], y=sample.position[0, 1],
                         psi=math.atan2(tangent[1], tangent[0]),
                         speed=2.0, steer=0.0)
    (a_t, gamma), _ = step(surf, state, ref)
    assert np.linalg.norm(sample.acceleration[0, :2]) == pytest.approx(1.0, abs=1e-9)
    assert abs(a_t) < 1e-9
    assert state.speed * abs(gamma) == pytest.approx(1.0, abs=1e-9)


def test_control_step_clamping_flagged():
    params = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=0.6, max_steer_rate=2.0)
    surf = SurfaceModel(flat_grid(n=40, cell=2.0))
    traj = straight_reference(surf)
    # large lateral offset demands more steering rate than the actuator allows
    state = VehicleState(x=5.0, y=42.0, psi=0.0, speed=2.0, steer=0.0)
    (_, gamma), clamped = step(surf, state, sampled_row(traj, 0.0), params=params)
    assert clamped
    assert abs(gamma) == params.max_steer_rate


def test_closed_loop_offset_decay_matches_linear_error_dynamics():
    # with the exact plant on flat ground the planar error follows the
    # second-order error ODE; for a 0.5 m offset and matched velocity the
    # closed-form solution is the two-mode overdamped decay
    from offroad.simulate import Scenario, run_simulation
    surf = SurfaceModel(flat_grid(n=40, cell=2.0))
    traj = straight_reference(surf, speed=3.0)
    gains = GainConfig(10.0, 20.0)
    init = VehicleState(x=5.0, y=40.5, psi=0.0, speed=3.0, steer=0.0)
    log = run_simulation(Scenario(trajectory=traj, gains=gains,
                                  params=FREE, dt=0.01, initial_state=init))
    assert log.status == "completed"
    lam1, lam2 = 5 - math.sqrt(5), 5 + math.sqrt(5)
    t, err = log["t_s"], log["errE"]
    analytic = 0.5 * np.abs(lam2 * np.exp(-lam1 * t)
                            - lam1 * np.exp(-lam2 * t)) / (lam2 - lam1)
    assert np.max(np.abs(err - analytic)) < 1e-6
    # monotone decrease throughout (overdamped, zero initial velocity error)
    assert np.all(np.diff(err[err > 1e-10]) <= 1e-12)
    # asymptotic envelope decays at the slow pole
    sel = (t >= 1.0) & (t <= 2.5)
    A = np.vstack([t[sel], np.ones(sel.sum())]).T
    slope = np.linalg.lstsq(A, np.log(err[sel]), rcond=None)[0][0]
    assert abs(slope + lam1) / lam1 < 0.05
