"""Surface-constrained kinematic two-wheel car.

The state is planar position, yaw about the local surface normal, speed, and
steering angle; height is always the surface height.  Velocity points at the
steering angle within the body plane, the rear-contact no-sideslip constraint
fixes the yaw rate, and the inputs are tangential acceleration and steering
rate.  The inversion from a commanded ground-frame acceleration back to those
inputs is exact for speeds above a small guard threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .terrain import (
    SurfaceModel,
    euler_angles,
    euler_rates,
    normal_with_gradient,
    rotation_from_angles,
)

K_GROUND_UP = np.array([0.0, 0.0, 1.0])


def _cross3(a, b) -> np.ndarray:
    # np.cross has high overhead for single 3-vectors; this path is hot
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


class SingularSpeedError(ValueError):
    """Steering-rate inversion is undefined below the control speed guard."""


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float
    mass: float
    gravity: float = 9.81
    max_steer: float | None = 0.6        # rad; None = unlimited
    max_steer_rate: float | None = 2.0   # rad/s; None = unlimited
    max_accel: float | None = None       # m/s^2; None = unlimited
    min_ctrl_speed: float = 0.05         # below this the gamma inversion is rejected

    def __post_init__(self):
        if not (self.wheelbase > 0 and self.mass > 0 and self.gravity > 0):
            raise ValueError("wheelbase, mass, and gravity must be positive")

    @classmethod
    def default(cls) -> "VehicleParams":
        return cls(wheelbase=2.0, mass=1000.0)


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    psi: float     # yaw about the surface normal
    speed: float   # tangential speed along the steered direction
    steer: float   # steering angle


@dataclass(frozen=True)
class ControlInput:
    accel: float       # d(speed)/dt
    steer_rate: float  # d(steer)/dt


@dataclass(frozen=True)
class BodyFrame:
    """Body and surface-frame bases in ground coordinates, plus frame angles."""

    i_b: np.ndarray
    j_b: np.ndarray
    k_b: np.ndarray
    i_t: np.ndarray
    j_t: np.ndarray
    k_t: np.ndarray
    phi: float
    theta: float


def body_frame(phi: float, theta: float, psi: float) -> BodyFrame:
    """Surface-aligned frame of roll phi and pitch theta, yawed by psi about
    its normal to give the body frame."""
    rot = rotation_from_angles(phi, theta)
    i_t, j_t, k_t = rot[0], rot[1], rot[2]
    c, s = math.cos(psi), math.sin(psi)
    return BodyFrame(
        i_b=c * i_t + s * j_t,
        j_b=-s * i_t + c * j_t,
        k_b=k_t,
        i_t=i_t, j_t=j_t, k_t=k_t,
        phi=phi, theta=theta,
    )


def forward_velocity(state: VehicleState, frame: BodyFrame) -> np.ndarray:
    """Ground-frame velocity: speed along the steered direction in the body
    plane, so its norm equals the state speed and it is surface tangent."""
    c, s = math.cos(state.steer), math.sin(state.steer)
    return state.speed * (c * frame.i_b + s * frame.j_b)


def terrain_angular_velocity(phi_dot: float, theta_dot: float, frame: BodyFrame) -> np.ndarray:
    """Rotation rate of the surface-aligned frame given its roll and pitch
    rates (see terrain.euler_rates)."""
    cp, sp = math.cos(frame.phi), math.sin(frame.phi)
    return (phi_dot * frame.i_t
            + theta_dot * cp * frame.j_t
            - theta_dot * sp * frame.k_t)


def yaw_rate_from_no_slip(
    r_dot: np.ndarray, omega_t: np.ndarray, frame: BodyFrame, params: VehicleParams
) -> float:
    """Yaw rate that zeroes the rear-contact lateral velocity:

        psi_dot = -(1/l) * (r_dot - l * omega_t x i_b) . j_b
    """
    l = params.wheelbase
    rel = r_dot - l * _cross3(omega_t, frame.i_b)
    return float(-(rel @ frame.j_b) / l)


def no_slip_residual(
    r_dot: np.ndarray, omega_t: np.ndarray, psi_dot: float,
    frame: BodyFrame, params: VehicleParams,
) -> float:
    """Rear-contact lateral velocity under the model's sign conventions; zero
    whenever psi_dot obeys the no-slip law."""
    l = params.wheelbase
    rel = r_dot - l * _cross3(omega_t, frame.i_b)
    return float(rel @ frame.j_b + l * psi_dot)


def accel_to_controls(
    state: VehicleState, frame: BodyFrame, omega_b: np.ndarray,
    r_ddot: np.ndarray, params: VehicleParams,
) -> ControlInput:
    """Invert the acceleration expansion for (accel, steer_rate).

    Subtracting the frame-rotation term leaves a vector in the body plane
    spanned by the steered direction and its perpendicular; projecting onto
    those directions recovers the tangential acceleration and speed-scaled
    steering rate.
    """
    if state.speed < params.min_ctrl_speed:
        raise SingularSpeedError(
            f"speed {state.speed:.4f} m/s below control threshold "
            f"{params.min_ctrl_speed}; steering-rate inversion is singular"
        )
    c, s = math.cos(state.steer), math.sin(state.steer)
    v_vec = state.speed * (c * frame.i_b + s * frame.j_b)
    rem = r_ddot - _cross3(omega_b, v_vec)
    comp_i = float(rem @ frame.i_b)
    comp_j = float(rem @ frame.j_b)
    a_t = c * comp_i + s * comp_j
    gamma = (-s * comp_i + c * comp_j) / state.speed
    return ControlInput(accel=a_t, steer_rate=gamma)


def realized_acceleration(
    state: VehicleState, control: ControlInput, frame: BodyFrame,
    omega_b: np.ndarray,
) -> np.ndarray:
    """Ground-frame acceleration produced by the inputs at this state."""
    c, s = math.cos(state.steer), math.sin(state.steer)
    u = c * frame.i_b + s * frame.j_b
    w = -s * frame.i_b + c * frame.j_b
    return (control.accel * u
            + state.speed * control.steer_rate * w
            + _cross3(omega_b, state.speed * u))


def normal_force(frame: BodyFrame, r_ddot: np.ndarray, params: VehicleParams) -> float:
    """Surface reaction magnitude; non-positive means the car leaves the
    surface, which callers treat as a validity violation."""
    return float(frame.k_b @ (params.mass * params.gravity * K_GROUND_UP
                              + params.mass * np.asarray(r_ddot)))


def clamp_control(control: ControlInput, params: VehicleParams) -> tuple[ControlInput, bool]:
    """Apply actuator bounds; returns the clamped input and whether clamping hit."""
    a, g = control.accel, control.steer_rate
    if params.max_accel is not None:
        a = min(max(a, -params.max_accel), params.max_accel)
    if params.max_steer_rate is not None:
        g = min(max(g, -params.max_steer_rate), params.max_steer_rate)
    clamped = (a != control.accel) or (g != control.steer_rate)
    return ControlInput(accel=a, steer_rate=g), clamped


@dataclass(frozen=True)
class MotionContext:
    """Everything a control or integration step needs from one surface query."""

    frame: BodyFrame
    r_dot: np.ndarray
    omega_t: np.ndarray
    omega_b: np.ndarray
    psi_dot: float
    jet: tuple  # SurfaceModel.eval at the state position: (f, f_x, f_y, f_xx, f_yy, f_xy)


def frame_and_motion(
    surface: SurfaceModel, state: VehicleState, params: VehicleParams
) -> MotionContext:
    """Body frame, ground velocity, frame rotation rates, and no-slip yaw rate
    from a single surface evaluation."""
    jet = surface.eval(state.x, state.y)
    n, dn_dx, dn_dy = normal_with_gradient(jet)
    frame = body_frame(*euler_angles(n), state.psi)
    r_dot = forward_velocity(state, frame)
    n_dot = dn_dx * r_dot[0] + dn_dy * r_dot[1]
    omega_t = terrain_angular_velocity(*euler_rates(n, n_dot), frame)
    psi_dot = yaw_rate_from_no_slip(r_dot, omega_t, frame, params)
    omega_b = omega_t + psi_dot * frame.k_t
    return MotionContext(frame=frame, r_dot=r_dot, omega_t=omega_t,
                         omega_b=omega_b, psi_dot=psi_dot, jet=jet)


def state_rates(ctx: MotionContext, control: ControlInput) -> np.ndarray:
    """(x_dot, y_dot, psi_dot, speed_dot, steer_dot): the time derivative of
    the state vector (x, y, psi, speed, steer) under the given inputs."""
    return np.array([ctx.r_dot[0], ctx.r_dot[1], ctx.psi_dot,
                     control.accel, control.steer_rate])


def _state(vec) -> VehicleState:
    return VehicleState(x=float(vec[0]), y=float(vec[1]), psi=float(vec[2]),
                        speed=float(vec[3]), steer=float(vec[4]))


def step_dynamics(
    state: VehicleState,
    rates: Callable[[VehicleState, float], np.ndarray],
    params: VehicleParams, dt: float, k1: np.ndarray | None,
) -> VehicleState:
    """One classical RK4 step of length dt.

    ``rates(s, h)`` is the state derivative (see state_rates) at state s and
    time offset h in {0, dt/2, dt} from the step start; ``k1`` is its value
    at (state, 0) when the caller already has it, else None.  Any actuator
    clamping of the inputs belongs in ``rates``.  After the step the
    steering angle is clamped to max_steer and the speed to >= 0.  Height
    never appears in the state: it is re-derived from the surface wherever
    needed.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    y0 = np.array([state.x, state.y, state.psi, state.speed, state.steer])
    if k1 is None:
        k1 = rates(state, 0.0)
    k2 = rates(_state(y0 + 0.5 * dt * k1), 0.5 * dt)
    k3 = rates(_state(y0 + 0.5 * dt * k2), 0.5 * dt)
    k4 = rates(_state(y0 + dt * k3), dt)
    x, y, psi, speed, steer = (float(v) for v in y0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    if params.max_steer is not None:
        steer = min(max(steer, -params.max_steer), params.max_steer)
    return VehicleState(x=x, y=y, psi=psi, speed=max(speed, 0.0), steer=steer)
