import math

import numpy as np
import pytest

from offroad.control import HOLD, control_step
from offroad.terrain import SurfaceModel
from offroad.vehicle import (
    MOTION_FIELDS,
    SingularSpeedError,
    VehicleParams,
    VehicleState,
    frame_and_motion,
    normal_force,
    step_dynamics,
)

from conftest import (
    FREE,
    GAINS,
    flat_grid,
    grid_from_function,
    normal_with_gradient,
    oracle_frame,
    oracle_surface_rate,
)

PARAMS = VehicleParams()


def motion_at(surf, state, params=PARAMS):
    return frame_and_motion(surf, *state, params)


def part(motion, first, n=3):
    """n consecutive fields of a motion tuple, from the named one on."""
    k = MOTION_FIELDS.index(first)
    return np.array(motion[k:k + n])


def body_axes(motion):
    return part(motion, "i_bx"), part(motion, "j_bx"), part(motion, "k_bx")


def held(accel, steer_rate, surface, params):
    """step_dynamics rate function with the inputs held fixed."""
    def rates(s, h):
        m = frame_and_motion(surface, *s, params)
        return m[15], m[16], m[21], accel, steer_rate
    return rates


def tracking_row(motion, state, ax, ay, ended=0.0):
    """A reference row that sits on the car and matches its planar velocity,
    so the planar command is exactly (ax, ay)."""
    return [state[0], state[1], motion[0], motion[15], motion[16], ax, ay, ended]


def assert_orthonormal(axes, tol=1e-12):
    i_b, j_b, k_b = axes
    for u in axes:
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=tol)
    assert abs(i_b @ j_b) < tol
    assert abs(i_b @ k_b) < tol
    assert abs(j_b @ k_b) < tol
    # right-handed
    assert np.allclose(np.cross(i_b, j_b), k_b, atol=tol)


def rear_contact_lateral_speed(surf, state, params, h=1e-6):
    """Velocity of the rear contact r - l i_b along j_b, with d(i_b)/dt taken
    by central differences of the angle-oracle frame along the motion the
    kernel reports (x_dot, y_dot, psi_dot)."""
    m = motion_at(surf, state, params)
    x_dot, y_dot, psi_dot = m[15], m[16], m[21]
    ahead = oracle_frame(surf, state.x + h * x_dot, state.y + h * y_dot, state.psi + h * psi_dot)
    behind = oracle_frame(surf, state.x - h * x_dot, state.y - h * y_dot, state.psi - h * psi_dot)
    di_b = (ahead[0] - behind[0]) / (2 * h)
    _, j_b, _, _, _ = oracle_frame(surf, state.x, state.y, state.psi)
    return (part(m, "x_dot") - params.wheelbase * di_b) @ j_b


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def test_body_frame_flat_zero_yaw(flat_surface):
    m = motion_at(flat_surface, VehicleState(5.0, 5.0, 0.0, 1.0, 0.0))
    assert len(m) == len(MOTION_FIELDS) and all(type(v) is float for v in m)
    axes = body_axes(m)
    assert np.allclose(axes[0], [1, 0, 0], atol=1e-12)
    assert np.allclose(axes[2], [0, 0, 1], atol=1e-12)
    assert_orthonormal(axes)


def test_body_frame_flat_quarter_yaw(flat_surface):
    axes = body_axes(motion_at(flat_surface, VehicleState(5.0, 5.0, math.pi / 2, 1.0, 0.0)))
    assert np.allclose(axes[0], [0, 1, 0], atol=1e-12)
    assert_orthonormal(axes)


def test_body_frame_on_incline(incline_x_surface):
    s = math.sqrt(2) / 2
    for psi in (0.0, 0.7, -2.1):
        axes = body_axes(motion_at(incline_x_surface, VehicleState(5.0, 5.0, psi, 1.0, 0.2)))
        assert np.allclose(axes[2], [-s, 0.0, s], atol=1e-9)
        assert_orthonormal(axes, tol=1e-9)


def test_body_frame_k_matches_surface_normal():
    # the kernel's square-root frame equals the angle oracle's trigonometric one
    surf = SurfaceModel(grid_from_function(
        lambda x, y: np.sin(x / 3.0) + 0.5 * np.cos(y / 2.0),
        n_cols=25, n_rows=25))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.uniform(2, 22, size=2)
        psi = rng.uniform(-math.pi, math.pi)
        axes = body_axes(motion_at(surf, VehicleState(x, y, psi, 1.0, 0.1)))
        assert np.allclose(axes[2], normal_with_gradient(surf.eval(x, y))[0], atol=1e-12)
        for got, want in zip(axes, oracle_frame(surf, x, y, psi)):
            assert np.allclose(got, want, atol=1e-12)
        assert_orthonormal(axes, tol=1e-12)


# ---------------------------------------------------------------------------
# Velocity
# ---------------------------------------------------------------------------

def test_forward_velocity_flat_straight(flat_surface):
    m = motion_at(flat_surface, VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=0.0))
    assert np.allclose(part(m, "x_dot"), [2, 0, 0], atol=1e-12)


def test_forward_velocity_flat_steered(flat_surface):
    m = motion_at(flat_surface, VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=math.pi / 2))
    assert np.allclose(part(m, "x_dot"), [0, 2, 0], atol=1e-12)


def test_forward_velocity_on_incline_tangent(incline_x_surface):
    m = motion_at(incline_x_surface, VehicleState(x=5, y=5, psi=0.0, speed=1.0, steer=0.0))
    v = part(m, "x_dot")
    s = math.sqrt(2) / 2
    assert np.allclose(v, [s, 0.0, s], atol=1e-9)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v @ part(m, "k_bx")) < 1e-12


# ---------------------------------------------------------------------------
# Angular velocity
# ---------------------------------------------------------------------------

def test_angular_velocity_flat_pure_yaw(flat_surface):
    # on flat ground the body only yaws: speed 2, sin(steer) = 0.5 and
    # wheelbase 2 turn it at 0.5 rad/s
    m = motion_at(flat_surface, VehicleState(x=5, y=5, psi=0.3, speed=2.0, steer=math.asin(0.5)))
    assert np.allclose(part(m, "w_bx"), [0, 0, 0.5], atol=1e-12)


def test_angular_velocity_fixed_incline_no_yaw(incline_x_surface):
    m = motion_at(incline_x_surface, VehicleState(x=5, y=5, psi=0.7, speed=1.0, steer=0.0))
    assert np.allclose(part(m, "w_bx"), [0, 0, 0], atol=1e-9)


def test_angular_velocity_matches_frame_finite_difference(bowl_surface):
    # oracle: rotation rate of the angle-oracle frame along the motion the
    # kernel reports, from the frame at displaced positions and yaws
    state = VehicleState(x=1.0, y=0.5, psi=0.4, speed=1.5, steer=0.3)
    m = motion_at(bowl_surface, state)
    omega = part(m, "w_bx")
    x_dot, y_dot, psi_dot = m[15], m[16], m[21]
    assert abs(psi_dot) > 0.1
    h = 1e-6
    fa = oracle_frame(bowl_surface, state.x - h * x_dot, state.y - h * y_dot, state.psi - h * psi_dot)
    fb = oracle_frame(bowl_surface, state.x + h * x_dot, state.y + h * y_dot, state.psi + h * psi_dot)
    # omega x e = de/dt for each basis vector
    for ea, eb in zip(fa[:3], fb[:3]):
        de = (eb - ea) / (2 * h)
        mid = (ea + eb) / 2
        assert np.allclose(np.cross(omega, mid), de, atol=1e-5)
    # and the surface-frame part of omega is the angle oracle's
    assert np.allclose(omega - psi_dot * part(m, "k_bx"),
                       oracle_surface_rate(bowl_surface, state.x, state.y, x_dot, y_dot),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# No-slip yaw rate
# ---------------------------------------------------------------------------

def test_yaw_rate_flat_straight(flat_surface):
    m = motion_at(flat_surface, VehicleState(x=5, y=5, psi=0.0, speed=3.0, steer=0.0))
    assert m[MOTION_FIELDS.index("psi_dot")] == pytest.approx(0.0, abs=1e-12)


def test_yaw_rate_flat_steered_by_hand(flat_surface):
    # flat-ground no-slip law psi_dot = v sin(steer) / l (Rajamani, Vehicle
    # Dynamics and Control, sec. 2.2): speed 2, sin(steer) = 0.5, wheelbase 2
    # give psi_dot = 2 * 0.5 / 2 = +0.5
    m = motion_at(flat_surface, VehicleState(x=5, y=5, psi=0.0, speed=2.0, steer=math.asin(0.5)))
    assert m[MOTION_FIELDS.index("psi_dot")] == pytest.approx(0.5, abs=1e-12)


def test_no_slip_residual_is_zero_under_the_law(bowl_surface):
    # the rear contact's sideways velocity, from a finite difference of the
    # oracle frame, vanishes at the yaw rate the kernel reports
    rng = np.random.default_rng(6)
    for _ in range(50):
        state = VehicleState(x=rng.uniform(-5, 5), y=rng.uniform(-5, 5),
                             psi=rng.uniform(-3, 3), speed=rng.uniform(0.5, 4.0),
                             steer=rng.uniform(-0.5, 0.5))
        assert abs(rear_contact_lateral_speed(bowl_surface, state, PARAMS)) < 1e-7


# ---------------------------------------------------------------------------
# Acceleration inversion (control_step on a reference row that sits on the
# car, so the planar command is the row's acceleration)
# ---------------------------------------------------------------------------

def invert(surf, state, ax, ay, params=FREE, ended=0.0):
    m = motion_at(surf, state, params)
    return control_step(m, state, tracking_row(m, state, ax, ay, ended), GAINS, params)


def test_inversion_pure_tangential(flat_surface):
    (a_t, gamma), clamped = invert(flat_surface, VehicleState(5.0, 5.0, 0.0, 2.0, 0.0), 1.5, 0.0)
    assert a_t == pytest.approx(1.5, abs=1e-12)
    assert gamma == pytest.approx(0.0, abs=1e-12)
    assert not clamped


def test_inversion_pure_lateral(flat_surface):
    (a_t, gamma), _ = invert(flat_surface, VehicleState(5.0, 5.0, 0.0, 2.0, 0.0), 0.0, 1.0)
    assert a_t == pytest.approx(0.0, abs=1e-12)
    assert gamma == pytest.approx(0.5, abs=1e-12)  # 1 / speed


def test_inversion_round_trip_random():
    # rebuild r_ddot = a_T u + v gamma w + omega_b x r_dot from the inputs,
    # with u, w from the angle oracle, and compare all three components with
    # the command lifted onto the surface
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.8 * np.sin(x / 4.0) * np.cos(y / 5.0),
        n_cols=30, n_rows=30))
    rng = np.random.default_rng(12)
    for _ in range(1000):
        state = VehicleState(x=rng.uniform(3, 26), y=rng.uniform(3, 26),
                             psi=rng.uniform(-math.pi, math.pi),
                             speed=rng.uniform(0.2, 8.0),
                             steer=rng.uniform(-1.2, 1.2))
        ax, ay = rng.normal(scale=3.0, size=2)
        (a_t, gamma), clamped = invert(surf, state, ax, ay)
        assert not clamped
        m = motion_at(surf, state, FREE)
        i_b, j_b, _, _, _ = oracle_frame(surf, state.x, state.y, state.psi)
        c, s = math.cos(state.steer), math.sin(state.steer)
        u, w = c * i_b + s * j_b, -s * i_b + c * j_b
        rebuilt = (a_t * u + state.speed * gamma * w
                   + np.cross(part(m, "w_bx"), state.speed * u))
        _, f_x, f_y, f_xx, f_yy, f_xy = surf.eval(state.x, state.y)
        x_dot, y_dot = m[15], m[16]
        az = f_x * ax + f_y * ay + f_xx * x_dot ** 2 + f_yy * y_dot ** 2 + 2 * f_xy * x_dot * y_dot
        assert np.allclose(rebuilt, [ax, ay, az], atol=1e-9)


def test_inversion_singular_speed(flat_surface):
    with pytest.raises(SingularSpeedError):
        invert(flat_surface, VehicleState(5.0, 5.0, 0.0, 0.01, 0.0), 0.0, 0.0, PARAMS)


@pytest.mark.parametrize("guard", [PARAMS.min_ctrl_speed, math.ulp(0.0)])
def test_inversion_at_rest_is_singular_not_division_by_zero(flat_surface, guard):
    # speed 0 is where the RK4 step's speed clamp leaves a hard brake; even
    # the smallest guard the parameters accept keeps the inversion from
    # dividing by it
    params = VehicleParams(wheelbase=2.0, mass=1000.0, min_ctrl_speed=guard)
    with pytest.raises(SingularSpeedError):
        invert(flat_surface, VehicleState(5.0, 5.0, 0.0, 0.0, 0.0), 0.0, 0.0, params)


def test_inversion_below_the_guard_holds_once_the_reference_has_ended(flat_surface):
    state = VehicleState(5.0, 5.0, 0.0, 0.01, 0.2)
    assert invert(flat_surface, state, 1.0, 1.0, PARAMS, ended=1.0) == (HOLD, False)
    # above the guard an ended reference is tracked as usual
    (a_t, _), _ = invert(flat_surface, state._replace(speed=1.0, steer=0.0), 1.0, 0.0, FREE,
                       ended=1.0)
    assert a_t == pytest.approx(1.0, abs=1e-12)


BOUNDS = ("max_steer", "max_steer_rate", "max_accel")


@pytest.mark.parametrize("field", ["min_ctrl_speed", "wheelbase", "mass", "gravity", *BOUNDS])
@pytest.mark.parametrize("value", [0.0, -0.05, -1.0, math.nan, math.inf])
def test_params_reject_non_positive_or_non_finite(field, value):
    kwargs = {"wheelbase": 2.0, "mass": 1000.0, field: value}
    if field in BOUNDS and value == math.inf:
        # an infinite actuator bound is no bound: it never clamps
        assert getattr(VehicleParams(**kwargs), field) == math.inf
        return
    with pytest.raises(ValueError, match=field):
        VehicleParams(**kwargs)


# ---------------------------------------------------------------------------
# Normal force
# ---------------------------------------------------------------------------

def test_normal_force_flat_at_rest(flat_surface):
    m = motion_at(flat_surface, VehicleState(5.0, 5.0, 0.3, 0.0, 0.0))
    assert normal_force(m, PARAMS) == pytest.approx(9810.0)


def test_normal_force_free_fall_boundary():
    # cresting z = -(x - 15)^2 / (2 R) at speed v needs a downward
    # acceleration v^2 / R; at v = sqrt(g R) gravity alone supplies it and
    # the contact force is zero
    radius = 10.0
    crest = SurfaceModel(grid_from_function(
        lambda x, y: -((x - 15.0) ** 2) / (2 * radius), n_cols=31, n_rows=31))
    for speed in (0.0, 5.0, math.sqrt(9.81 * radius)):
        m = motion_at(crest, VehicleState(15.0, 15.0, 0.0, speed, 0.0))
        expected = 1000.0 * (9.81 - speed * speed / radius)
        assert normal_force(m, PARAMS) == pytest.approx(expected, abs=1e-6)


def test_normal_force_on_45_degree_incline(incline_x_surface):
    m = motion_at(incline_x_surface, VehicleState(5.0, 5.0, 0.0, 0.0, 0.0))
    assert normal_force(m, PARAMS) == pytest.approx(1000.0 * 9.81 * math.sqrt(2) / 2, rel=1e-9)


# ---------------------------------------------------------------------------
# Dynamics stepping
# ---------------------------------------------------------------------------

def test_step_straight_line_advance(flat_surface):
    state = VehicleState(x=3.0, y=5.0, psi=0.0, speed=2.0, steer=0.0)
    dt = 0.01
    rates = held(0.0, 0.0, flat_surface, PARAMS)
    out = step_dynamics(state, rates, PARAMS, dt, rates(state, 0.0))
    assert out.x == pytest.approx(3.0 + 2.0 * dt, abs=1e-12)
    assert out.y == pytest.approx(5.0, abs=1e-12)
    assert out.psi == pytest.approx(0.0, abs=1e-12)


def test_step_constant_steer_traces_circle():
    # analytic oracle: with fixed steer on flat ground the contact point
    # follows a circle of radius wheelbase / |sin(steer)| and returns to the
    # start after one period; positive steer turns left, so the circle's
    # centre is radius metres north of the start
    flat_surface = SurfaceModel(flat_grid(n=30))
    steer = 0.3
    speed = 2.0
    params = FREE
    radius = params.wheelbase / math.sin(steer)
    period = 2 * math.pi * radius / speed
    dt = 1e-3
    n = int(round(period / dt))
    state = VehicleState(x=15.0, y=8.0, psi=0.0, speed=speed, steer=steer)
    start = np.array([state.x, state.y])
    rates = held(0.0, 0.0, flat_surface, params)
    for _ in range(n):
        state = step_dynamics(state, rates, params, dt, rates(state, 0.0))
    closure = np.linalg.norm([state.x - start[0], state.y - start[1]])
    # n*dt may differ from the period by up to dt/2: allow the arc the car
    # covers in that time plus integration error
    assert closure < speed * dt + 1e-3


def test_step_speed_magnitude_identity(flat_surface):
    # speed state and velocity norm agree by construction at every sample
    state = VehicleState(x=4.0, y=4.0, psi=0.2, speed=1.5, steer=0.2)
    rates = held(0.1, 0.05, flat_surface, PARAMS)
    for _ in range(100):
        state = step_dynamics(state, rates, PARAMS, 0.01, rates(state, 0.0))
        m = motion_at(flat_surface, state)
        v = part(m, "x_dot")
        assert np.linalg.norm(v) == pytest.approx(state.speed, abs=1e-9)
        assert abs(v @ part(m, "k_bx")) < 1e-9


def test_step_rk4_order(flat_surface):
    # halving dt shrinks the one-step error roughly 16x on a smooth reference
    state = VehicleState(x=6.0, y=6.0, psi=0.1, speed=2.0, steer=0.25)
    params = FREE
    rates = held(0.3, 0.1, flat_surface, params)

    def advance(dt, n):
        s = state
        for _ in range(n):
            s = step_dynamics(s, rates, params, dt, rates(s, 0.0))
        return np.array(s)

    ref = advance(1e-4, 1600)          # effectively exact
    err_h = np.linalg.norm(advance(0.16, 1) - ref)
    err_h2 = np.linalg.norm(advance(0.08, 2) - ref)
    ratio = err_h / err_h2
    assert 10.0 < ratio < 24.0


def test_step_clamps_steering(flat_surface):
    # a held 10 rad/s steering rate drives the angle into its 0.6 rad bound
    state = VehicleState(x=5.0, y=5.0, psi=0.0, speed=2.0, steer=0.59)
    rates = held(0.0, 10.0, flat_surface, PARAMS)
    out = step_dynamics(state, rates, PARAMS, 0.01, rates(state, 0.0))
    assert out.steer == PARAMS.max_steer
    # and the controller clamps a demand beyond the 2 rad/s rate bound
    (_, gamma), hit = invert(flat_surface, state, 0.0, 10.0, PARAMS)
    assert hit and gamma == PARAMS.max_steer_rate


def test_step_braking_never_yields_negative_speed(flat_surface):
    # unclamped, RK4 would end this step at 0.1 - 10 * 0.1 = -0.9 m/s
    state = VehicleState(x=5.0, y=5.0, psi=0.0, speed=0.1, steer=0.0)
    brake = held(-10.0, 0.0, flat_surface, FREE)
    out = state
    for _ in range(5):
        out = step_dynamics(out, brake, FREE, 0.1, brake(out, 0.0))
        assert out.speed == 0.0
    # a braking step that stays above zero is left alone
    gentle = held(-0.5, 0.0, flat_surface, FREE)
    out = step_dynamics(state, gentle, FREE, 0.1, gentle(state, 0.0))
    assert out.speed == pytest.approx(0.05, abs=1e-12)


def test_surface_adherence_on_rolling_terrain():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.5 * np.sin(x / 5.0) + 0.3 * np.cos(y / 4.0),
        n_cols=30, n_rows=30))
    params = FREE
    state = VehicleState(x=10.0, y=10.0, psi=0.5, speed=2.0, steer=0.1)
    rates = held(0.0, 0.02, surf, params)
    for k in range(200):
        m = motion_at(surf, state, params)
        # velocity stays tangent and the rear contact does not slide
        assert abs(part(m, "x_dot") @ part(m, "k_bx")) < 1e-9
        if k % 20 == 0:
            assert abs(rear_contact_lateral_speed(surf, state, params)) < 1e-6
        state = step_dynamics(state, rates, params, 0.01, rates(state, 0.0))


# ---------------------------------------------------------------------------
# No-slip oracles that do not reuse the yaw-rate formula
# ---------------------------------------------------------------------------

def oracle_body_axes(surf, x, y, psi):
    """(i_b, j_b) built by cross products from the surface gradient alone:
    i_t is the tangent with no y component, j_t = n x i_t, and the body axes
    are those yawed by psi about n."""
    _, f_x, f_y, _, _, _ = surf.eval(x, y)
    n = np.array([-f_x, -f_y, 1.0]) / math.sqrt(f_x * f_x + f_y * f_y + 1.0)
    i_t = np.array([n[2], 0.0, -n[0]]) / math.hypot(n[0], n[2])
    j_t = np.cross(n, i_t)
    i_b = math.cos(psi) * i_t + math.sin(psi) * j_t
    return i_b, np.cross(n, i_b)


def test_rear_contact_lateral_velocity_vanishes_on_a_slope():
    # finite-difference the rear contact r - l i_b along an RK4 run over
    # rolling, sloped terrain: its velocity across the body (along j_b) is
    # zero up to the O(dt^2) error of the difference
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.3 * x + 0.8 * np.sin(x / 4.0) * np.cos(y / 5.0),
        n_cols=30, n_rows=30))
    dt = 1e-3
    state = VehicleState(x=8.0, y=10.0, psi=0.4, speed=2.0, steer=0.3)
    rates = held(0.2, -0.1, surf, FREE)
    states = [state]
    for _ in range(1500):
        states.append(step_dynamics(states[-1], rates, FREE, dt, rates(states[-1], 0.0)))
    rear = [np.array([s.x, s.y, surf.eval(s.x, s.y)[0]])
            - FREE.wheelbase * oracle_body_axes(surf, s.x, s.y, s.psi)[0] for s in states]
    worst = 0.0
    for k in range(1, len(states) - 1, 50):
        v_rear = (rear[k + 1] - rear[k - 1]) / (2 * dt)
        _, j_b = oracle_body_axes(surf, states[k].x, states[k].y, states[k].psi)
        worst = max(worst, abs(v_rear @ j_b))
        assert np.linalg.norm(v_rear) > 0.5
    assert worst < 1e-5


@pytest.mark.parametrize("steer", [0.3, -0.3])
def test_positive_steer_turns_left(flat_surface, steer):
    state = VehicleState(x=3.0, y=6.0, psi=0.0, speed=2.0, steer=steer)
    rates = held(0.0, 0.0, flat_surface, FREE)
    for _ in range(100):
        state = step_dynamics(state, rates, FREE, 0.01, rates(state, 0.0))
    # heading east, a left turn raises the yaw and moves the car north
    assert math.copysign(1.0, state.psi) == math.copysign(1.0, steer)
    assert math.copysign(1.0, state.y - 6.0) == math.copysign(1.0, steer)
    assert abs(state.psi) > 0.2
