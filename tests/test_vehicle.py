import math

import numpy as np
import pytest

from offroad.terrain import SurfaceModel, euler_angles, euler_rates, normal_with_gradient
from offroad.vehicle import (
    BodyFrame,
    ControlInput,
    SingularSpeedError,
    VehicleParams,
    VehicleState,
    accel_to_controls,
    body_frame,
    clamp_control,
    forward_velocity,
    frame_and_motion,
    no_slip_residual,
    normal_force,
    realized_acceleration,
    state_rates,
    step_dynamics,
    terrain_angular_velocity,
    yaw_rate_from_no_slip,
)

from conftest import flat_grid, grid_from_function

PARAMS = VehicleParams.default()
FREE = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=None, max_steer_rate=None)


def frame_at(surf, x, y, psi):
    n, _, _ = normal_with_gradient(surf.eval(x, y))
    return body_frame(*euler_angles(n), psi)


def body_rate(surf, state, x_dot, y_dot, psi_dot):
    """Body angular velocity at the state's pose while the contact point moves
    at (x_dot, y_dot) and the yaw changes at psi_dot."""
    n, dn_dx, dn_dy = normal_with_gradient(surf.eval(state.x, state.y))
    frame = body_frame(*euler_angles(n), state.psi)
    omega_t = terrain_angular_velocity(*euler_rates(n, dn_dx * x_dot + dn_dy * y_dot), frame)
    return omega_t + psi_dot * frame.k_t


def held(control, surface, params):
    """step_dynamics rate function with the inputs held at the clamped control."""
    control, _ = clamp_control(control, params)
    return lambda s, h: state_rates(frame_and_motion(surface, s, params), control)


def assert_orthonormal(frame, tol=1e-12):
    for u in (frame.i_b, frame.j_b, frame.k_b):
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=tol)
    assert abs(frame.i_b @ frame.j_b) < tol
    assert abs(frame.i_b @ frame.k_b) < tol
    assert abs(frame.j_b @ frame.k_b) < tol
    # right-handed
    assert np.allclose(np.cross(frame.i_b, frame.j_b), frame.k_b, atol=tol)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def test_body_frame_flat_zero_yaw(flat_surface):
    frame = frame_at(flat_surface, 5.0, 5.0, 0.0)
    assert np.allclose(frame.i_b, [1, 0, 0], atol=1e-12)
    assert np.allclose(frame.k_b, [0, 0, 1], atol=1e-12)
    assert_orthonormal(frame)


def test_body_frame_flat_quarter_yaw(flat_surface):
    frame = frame_at(flat_surface, 5.0, 5.0, math.pi / 2)
    assert np.allclose(frame.i_b, [0, 1, 0], atol=1e-12)
    assert_orthonormal(frame)


def test_body_frame_on_incline(incline_x_surface):
    s = math.sqrt(2) / 2
    for psi in (0.0, 0.7, -2.1):
        frame = frame_at(incline_x_surface, 5.0, 5.0, psi)
        assert np.allclose(frame.k_b, [-s, 0.0, s], atol=1e-9)
        assert_orthonormal(frame, tol=1e-9)


def test_body_frame_k_matches_surface_normal():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: np.sin(x / 3.0) + 0.5 * np.cos(y / 2.0),
        n_cols=25, n_rows=25))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.uniform(2, 22, size=2)
        frame = frame_at(surf, x, y, rng.uniform(-math.pi, math.pi))
        assert np.allclose(frame.k_b, normal_with_gradient(surf.eval(x, y))[0], atol=1e-12)
        assert_orthonormal(frame, tol=1e-12)


# ---------------------------------------------------------------------------
# Velocity
# ---------------------------------------------------------------------------

def test_forward_velocity_flat_straight(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=0.0)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    assert np.allclose(forward_velocity(state, frame), [2, 0, 0], atol=1e-12)


def test_forward_velocity_flat_steered(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=math.pi / 2)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    assert np.allclose(forward_velocity(state, frame), [0, 2, 0], atol=1e-12)


def test_forward_velocity_on_incline_tangent(incline_x_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=1.0, steer=0.0)
    frame = frame_at(incline_x_surface, 5, 5, 0.0)
    v = forward_velocity(state, frame)
    s = math.sqrt(2) / 2
    assert np.allclose(v, [s, 0.0, s], atol=1e-9)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v @ frame.k_t) < 1e-12


# ---------------------------------------------------------------------------
# Angular velocity
# ---------------------------------------------------------------------------

def test_angular_velocity_flat_pure_yaw(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.3, speed=2.0, steer=0.0)
    omega = body_rate(flat_surface, state, 2.0, 0.0, psi_dot=0.5)
    assert np.allclose(omega, [0, 0, 0.5], atol=1e-12)


def test_angular_velocity_fixed_incline_no_yaw(incline_x_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=1.0, steer=0.0)
    omega = body_rate(incline_x_surface, state, 0.7, 0.7, psi_dot=0.0)
    assert np.allclose(omega, [0, 0, 0], atol=1e-9)


def test_angular_velocity_matches_frame_finite_difference(bowl_surface):
    # oracle: rotation rate of the body frame along a known motion, computed
    # from the frame at displaced positions/yaws
    x, y, psi = 1.0, 0.5, 0.4
    x_dot, y_dot, psi_dot = 1.2, -0.8, 0.3
    omega = body_rate(bowl_surface,
                      VehicleState(x=x, y=y, psi=psi, speed=1.0, steer=0.0),
                      x_dot, y_dot, psi_dot)
    h = 1e-6
    fa = frame_at(bowl_surface, x - h * x_dot, y - h * y_dot, psi - h * psi_dot)
    fb = frame_at(bowl_surface, x + h * x_dot, y + h * y_dot, psi + h * psi_dot)
    # omega x e = de/dt for each basis vector
    for ea, eb, e in ((fa.i_b, fb.i_b, None), (fa.j_b, fb.j_b, None), (fa.k_b, fb.k_b, None)):
        de = (eb - ea) / (2 * h)
        mid = (ea + eb) / 2
        assert np.allclose(np.cross(omega, mid), de, atol=1e-5)


# ---------------------------------------------------------------------------
# No-slip yaw rate
# ---------------------------------------------------------------------------

def test_yaw_rate_flat_straight(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=3.0, steer=0.0)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    r_dot = forward_velocity(state, frame)
    assert yaw_rate_from_no_slip(r_dot, np.zeros(3), frame, PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_yaw_rate_flat_steered_by_hand(flat_surface):
    # speed 2, sin(steer) = 0.5, wheelbase 2: psi_dot = -(1/2)(2 * 0.5) = -0.5
    steer = math.asin(0.5)
    state = VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=steer)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    r_dot = forward_velocity(state, frame)
    psi_dot = yaw_rate_from_no_slip(r_dot, np.zeros(3), frame, PARAMS)
    assert psi_dot == pytest.approx(-0.5, abs=1e-12)


def test_no_slip_residual_is_zero_under_the_law(bowl_surface):
    rng = np.random.default_rng(6)
    for _ in range(50):
        state = VehicleState(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5),
                             psi=rng.uniform(-3, 3), speed=rng.uniform(0.5, 4.0),
                             steer=rng.uniform(-0.5, 0.5))
        ctx = frame_and_motion(bowl_surface, state, PARAMS)
        assert abs(no_slip_residual(ctx.r_dot, ctx.omega_t, ctx.psi_dot,
                                    ctx.frame, PARAMS)) < 1e-12


# ---------------------------------------------------------------------------
# Acceleration inversion
# ---------------------------------------------------------------------------

def test_inversion_pure_tangential(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=0.0)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    control = accel_to_controls(state, frame, np.zeros(3), 1.5 * frame.i_b, PARAMS)
    assert control.accel == pytest.approx(1.5, abs=1e-12)
    assert control.steer_rate == pytest.approx(0.0, abs=1e-12)


def test_inversion_pure_lateral(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=0.0)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    control = accel_to_controls(state, frame, np.zeros(3), 1.0 * frame.j_b, PARAMS)
    assert control.accel == pytest.approx(0.0, abs=1e-12)
    assert control.steer_rate == pytest.approx(0.5, abs=1e-12)  # 1 / speed


def test_inversion_round_trip_random():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.8 * np.sin(x / 4.0) * np.cos(y / 5.0),
        n_cols=30, n_rows=30))
    rng = np.random.default_rng(12)
    for _ in range(1000):
        state = VehicleState(x=rng.uniform(3, 26), y=rng.uniform(3, 26),
                             psi=rng.uniform(-math.pi, math.pi),
                             speed=rng.uniform(0.2, 8.0),
                             steer=rng.uniform(-1.2, 1.2))
        ctx = frame_and_motion(surf, state, FREE)
        frame, omega_b = ctx.frame, ctx.omega_b
        r_ddot = rng.normal(scale=3.0, size=3)
        control = accel_to_controls(state, frame, omega_b, r_ddot, FREE)
        rebuilt = realized_acceleration(state, control, frame, omega_b)
        # the in-plane components must match exactly; the normal component is
        # whatever the surface constraint makes it
        for basis in (frame.i_b, frame.j_b):
            assert rebuilt @ basis == pytest.approx(r_ddot @ basis, abs=1e-9)


def test_inversion_singular_speed(flat_surface):
    state = VehicleState(x=5, y=5, psi=0.0, speed=0.01, steer=0.0)
    frame = frame_at(flat_surface, 5, 5, 0.0)
    with pytest.raises(SingularSpeedError):
        accel_to_controls(state, frame, np.zeros(3), np.zeros(3), PARAMS)


# ---------------------------------------------------------------------------
# Normal force
# ---------------------------------------------------------------------------

def test_normal_force_flat_at_rest(flat_surface):
    frame = frame_at(flat_surface, 5, 5, 0.0)
    assert normal_force(frame, np.zeros(3), PARAMS) == pytest.approx(9810.0)


def test_normal_force_free_fall_boundary(flat_surface):
    frame = frame_at(flat_surface, 5, 5, 0.0)
    fn = normal_force(frame, np.array([0.0, 0.0, -9.81]), PARAMS)
    assert fn == pytest.approx(0.0, abs=1e-9)


def test_normal_force_on_45_degree_incline(incline_x_surface):
    frame = frame_at(incline_x_surface, 5, 5, 0.0)
    fn = normal_force(frame, np.zeros(3), PARAMS)
    assert fn == pytest.approx(1000.0 * 9.81 * math.sqrt(2) / 2, rel=1e-9)


# ---------------------------------------------------------------------------
# Dynamics stepping
# ---------------------------------------------------------------------------

def test_step_straight_line_advance(flat_surface):
    state = VehicleState(x=3.0, y=5.0, psi=0.0, speed=2.0, steer=0.0)
    control = ControlInput(accel=0.0, steer_rate=0.0)
    dt = 0.01
    out = step_dynamics(state, held(control, flat_surface, PARAMS), PARAMS, dt, None)
    assert out.x == pytest.approx(3.0 + 2.0 * dt, abs=1e-12)
    assert out.y == pytest.approx(5.0, abs=1e-12)
    assert out.psi == pytest.approx(0.0, abs=1e-12)


def test_step_constant_steer_traces_circle():
    # analytic oracle: with fixed steer on flat ground the contact point
    # follows a circle of radius wheelbase / |sin(steer)| and returns to the
    # start after one period
    flat_surface = SurfaceModel(flat_grid(n=30))
    steer = 0.3
    speed = 2.0
    params = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=None, max_steer_rate=None)
    radius = params.wheelbase / math.sin(steer)
    period = 2 * math.pi * radius / speed
    dt = 1e-3
    n = int(round(period / dt))
    state = VehicleState(x=15.0, y=22.0, psi=0.0, speed=speed, steer=steer)
    start = np.array([state.x, state.y])
    control = ControlInput(accel=0.0, steer_rate=0.0)
    for _ in range(n):
        state = step_dynamics(state, held(control, flat_surface, params), params, dt, None)
    closure = np.linalg.norm([state.x - start[0], state.y - start[1]])
    # n*dt may differ from the period by up to dt/2: allow the arc the car
    # covers in that time plus integration error
    assert closure < speed * dt + 1e-3


def test_step_speed_magnitude_identity(flat_surface):
    # speed state and velocity norm agree by construction at every sample
    state = VehicleState(x=4.0, y=4.0, psi=0.2, speed=1.5, steer=0.2)
    for _ in range(100):
        state = step_dynamics(state, held(ControlInput(0.1, 0.05), flat_surface, PARAMS),
                              PARAMS, 0.01, None)
        frame = frame_at(flat_surface, state.x, state.y, state.psi)
        v = forward_velocity(state, frame)
        assert np.linalg.norm(v) == pytest.approx(state.speed, abs=1e-9)
        assert abs(v @ frame.k_t) < 1e-9


def test_step_rk4_order(flat_surface):
    # halving dt shrinks the one-step error roughly 16x on a smooth reference
    state = VehicleState(x=6.0, y=6.0, psi=0.1, speed=2.0, steer=0.25)
    control = ControlInput(accel=0.3, steer_rate=0.1)
    params = FREE

    def advance(dt, n):
        s = state
        for _ in range(n):
            s = step_dynamics(s, held(control, flat_surface, params), params, dt, None)
        return np.array([s.x, s.y, s.psi, s.speed, s.steer])

    ref = advance(1e-4, 1600)          # effectively exact
    err_h = np.linalg.norm(advance(0.16, 1) - ref)
    err_h2 = np.linalg.norm(advance(0.08, 2) - ref)
    ratio = err_h / err_h2
    assert 10.0 < ratio < 24.0


def test_step_clamps_steering(flat_surface):
    state = VehicleState(x=5.0, y=5.0, psi=0.0, speed=2.0, steer=0.59)
    control = ControlInput(accel=0.0, steer_rate=10.0)  # beyond the 2 rad/s bound
    out = step_dynamics(state, held(control, flat_surface, PARAMS), PARAMS, 0.01, None)
    assert out.steer <= PARAMS.max_steer + 1e-12
    clamped, hit = clamp_control(control, PARAMS)
    assert hit and clamped.steer_rate == PARAMS.max_steer_rate


def test_step_braking_never_yields_negative_speed(flat_surface):
    # unclamped, RK4 would end this step at 0.1 - 10 * 0.1 = -0.9 m/s
    state = VehicleState(x=5.0, y=5.0, psi=0.0, speed=0.1, steer=0.0)
    brake = held(ControlInput(accel=-10.0, steer_rate=0.0), flat_surface, FREE)
    out = state
    for _ in range(5):
        out = step_dynamics(out, brake, FREE, 0.1, None)
        assert out.speed == 0.0
    # a braking step that stays above zero is left alone
    gentle = held(ControlInput(accel=-0.5, steer_rate=0.0), flat_surface, FREE)
    assert step_dynamics(state, gentle, FREE, 0.1, None).speed == pytest.approx(0.05, abs=1e-12)


def test_surface_adherence_on_rolling_terrain():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.5 * np.sin(x / 5.0) + 0.3 * np.cos(y / 4.0),
        n_cols=30, n_rows=30))
    params = FREE
    state = VehicleState(x=10.0, y=10.0, psi=0.5, speed=2.0, steer=0.1)
    for _ in range(200):
        ctx = frame_and_motion(surf, state, params)
        # velocity stays tangent and the no-slip residual stays zero
        assert abs(ctx.r_dot @ ctx.frame.k_t) < 1e-9
        assert abs(no_slip_residual(ctx.r_dot, ctx.omega_t, ctx.psi_dot,
                                    ctx.frame, params)) < 1e-6
        state = step_dynamics(state, held(ControlInput(0.0, 0.02), surf, params),
                              params, 0.01, None)
