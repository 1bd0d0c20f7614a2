"""Surface-constrained kinematic two-wheel car.

The state is planar position, yaw about the local surface normal, speed, and
steering angle; height is always the surface height.  Velocity points at the
steering angle within the body plane, the rear-contact no-sideslip constraint
fixes the yaw rate, and the inputs are tangential acceleration and steering
rate.

Frames and signs
----------------
The surface frame (i_t, j_t, k_t) is the ground frame rotated by the pitch
theta = atan2(n_x, n_z) about ground y and then the roll phi = asin(-n_y)
about the pitched x axis, so k_t is the unit upward normal n and i_t has no
ground-y component.  The body frame is the surface frame yawed by psi about
k_t: i_b = cos(psi) i_t + sin(psi) j_t points forward and j_b = k_b x i_b
points to the car's left.  psi and the steering angle delta are positive
counter-clockwise seen from above the surface.

The velocity is r_dot = v (cos(delta) i_b + sin(delta) j_b).  The rear
contact sits at r - l i_b (l the wheelbase) and may not slide sideways, so
its velocity along j_b, (r_dot - l omega_t x i_b) . j_b - l psi_dot, is zero:

    psi_dot = (r_dot - l omega_t x i_b) . j_b / l

where omega_t is the rotation rate of the surface frame.  On flat ground this
is psi_dot = v sin(delta) / l (Rajamani, Vehicle Dynamics and Control,
sec. 2.2): positive steer turns left.

Everything here works on Python floats and tuples: one closed-loop stage
evaluates frame_and_motion once and steps no arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .terrain import SurfaceModel


class SingularSpeedError(ValueError):
    """Steering-rate inversion is undefined below the control speed guard."""


# slots: as for control.GainConfig, its fields are read at every RK4 stage
@dataclass(frozen=True, slots=True)
class VehicleParams:
    wheelbase: float = 2.0
    mass: float = 1000.0
    gravity: float = 9.81
    max_steer: float = 0.6           # rad; inf = unlimited
    max_steer_rate: float = 2.0      # rad/s; inf = unlimited
    max_accel: float = math.inf      # m/s^2; inf = unlimited
    min_ctrl_speed: float = 0.05     # below this the gamma inversion is rejected

    def __post_init__(self):
        for name in ("wheelbase", "mass", "gravity", "min_ctrl_speed"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("max_steer", "max_steer_rate", "max_accel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive or inf, got {getattr(self, name)}")


class VehicleState(NamedTuple):
    x: float
    y: float
    psi: float     # yaw about the surface normal
    speed: float   # tangential speed along the steered direction
    steer: float   # steering angle


# The fields of the tuple frame_and_motion returns, in order.  It starts with
# the surface jet, so terrain.surface_lift reads the tuple directly.
MOTION_FIELDS = (
    "f", "f_x", "f_y", "f_xx", "f_yy", "f_xy",   # SurfaceModel.eval at (x, y)
    "i_bx", "i_by", "i_bz",                      # body forward axis
    "j_bx", "j_by", "j_bz",                      # body left axis
    "k_bx", "k_by", "k_bz",                      # body normal = surface normal
    "x_dot", "y_dot", "z_dot",                   # ground-frame velocity
    "w_bx", "w_by", "w_bz",                      # body angular velocity
    "psi_dot",                                   # no-slip yaw rate
)


def frame_and_motion(
    surface: SurfaceModel, x: float, y: float, psi: float, v: float, steer: float,
    params: VehicleParams,
) -> tuple:
    """Frame and motion of the car at one state, from one surface query.

    Returns the flat float tuple laid out by MOTION_FIELDS: the jet, the
    body frame, the velocity, the body angular velocity and the no-slip yaw
    rate.  The frame is built from the cosines and sines of roll and pitch,
    which follow from the normal without trigonometry:
    cos(phi) = sqrt(n_x^2 + n_z^2), sin(phi) = -n_y, and
    (cos(theta), sin(theta)) = (n_z, n_x) / cos(phi).
    """
    f, f_x, f_y, f_xx, f_yy, f_xy = surface.eval(x, y)
    # unit upward normal n = g / |g| with g = (-f_x, -f_y, 1)
    inv = 1.0 / math.sqrt(f_x * f_x + f_y * f_y + 1.0)
    n_x = -f_x * inv
    n_y = -f_y * inv
    n_z = inv
    xz = n_x * n_x + n_z * n_z
    cp = math.sqrt(xz)             # cos(phi) >= n_z > 0
    sp = -n_y
    ct = n_z / cp
    st = n_x / cp
    # surface frame rows: i_t = (ct, 0, -st), j_t = (sp st, cp, sp ct),
    # k_t = (cp st, -sp, cp ct); the body frame is it yawed by psi
    j_tx = sp * st
    j_tz = sp * ct
    c = math.cos(psi)
    s = math.sin(psi)
    i_bx = c * ct + s * j_tx
    i_by = s * cp
    i_bz = s * j_tz - c * st
    j_bx = c * j_tx - s * ct
    j_by = c * cp
    j_bz = c * j_tz + s * st
    k_bx = cp * st
    k_bz = cp * ct
    # velocity along the steered direction in the body plane
    cd = v * math.cos(steer)
    sd = v * math.sin(steer)
    x_dot = cd * i_bx + sd * j_bx
    y_dot = cd * i_by + sd * j_by
    z_dot = cd * i_bz + sd * j_bz
    # n_dot = g_dot / |g| - g (g . g_dot) / |g|^3 with
    # g_dot = -(f_xx x_dot + f_xy y_dot, f_xy x_dot + f_yy y_dot, 0)
    gd_x = -(f_xx * x_dot + f_xy * y_dot)
    gd_y = -(f_xy * x_dot + f_yy * y_dot)
    q = (f_x * gd_x + f_y * gd_y) * inv * inv * inv
    nd_x = gd_x * inv - f_x * q
    nd_y = gd_y * inv - f_y * q
    # roll and pitch rates by the chain rule through asin(-n_y) and
    # atan2(n_x, n_z); the surface frame turns at omega_t = phi_dot i_t +
    # theta_dot e_y (pitch about ground y, then roll about i_t)
    phi_dot = -nd_y / cp
    theta_dot = (n_z * nd_x - n_x * q) / xz
    w_x = phi_dot * ct
    w_z = -phi_dot * st
    # no rear sideslip: psi_dot = (r_dot - l omega_t x i_b) . j_b / l
    l = params.wheelbase
    r_x = x_dot - l * (theta_dot * i_bz - w_z * i_by)
    r_y = y_dot - l * (w_z * i_bx - w_x * i_bz)
    r_z = z_dot - l * (w_x * i_by - theta_dot * i_bx)
    psi_dot = (r_x * j_bx + r_y * j_by + r_z * j_bz) / l
    return (f, f_x, f_y, f_xx, f_yy, f_xy,
            i_bx, i_by, i_bz, j_bx, j_by, j_bz, k_bx, n_y, k_bz,
            x_dot, y_dot, z_dot,
            w_x + psi_dot * k_bx, theta_dot + psi_dot * n_y, w_z + psi_dot * k_bz,
            psi_dot)


def normal_force(motion: tuple, params: VehicleParams) -> float:
    """Surface reaction magnitude m (g k_b . e_z + k_b . r_ddot) at the state
    of a frame_and_motion tuple; non-positive means the car leaves the
    surface, which callers treat as a validity violation.

    The inputs accelerate the car within the body plane, so only the frame's
    rotation moves r_ddot off it: k_b . r_ddot = k_b . (omega_b x r_dot).
    """
    (_, _, _, _, _, _, _, _, _, _, _, _, k_x, k_y, k_z,
     x_dot, y_dot, z_dot, w_x, w_y, w_z, _) = motion
    turn = (k_x * (w_y * z_dot - w_z * y_dot) + k_y * (w_z * x_dot - w_x * z_dot)
            + k_z * (w_x * y_dot - w_y * x_dot))
    return params.mass * (params.gravity * k_z + turn)


def step_dynamics(
    state: tuple,
    rates: Callable[[tuple, float], tuple],
    params: VehicleParams, dt: float, k1: tuple,
) -> VehicleState:
    """One classical RK4 step of length dt > 0 on (x, y, psi, speed, steer).

    ``rates(s, h)`` is the state derivative (x_dot, y_dot, psi_dot,
    speed_dot, steer_dot) at the state tuple s and time offset h in
    {0, dt/2, dt} from the step start; ``k1`` is its value at (state, 0),
    which the caller has already evaluated.  Any actuator clamping of the
    inputs belongs in ``rates``.  After the step the steering angle is
    clamped to max_steer and the speed to >= 0.  Height never appears in the
    state: it is re-derived from the surface wherever needed.
    """
    x, y, psi, v, d = state
    h = 0.5 * dt
    x1, y1, p1, v1, d1 = k1
    x2, y2, p2, v2, d2 = rates((x + h * x1, y + h * y1, psi + h * p1,
                                v + h * v1, d + h * d1), h)
    x3, y3, p3, v3, d3 = rates((x + h * x2, y + h * y2, psi + h * p2,
                                v + h * v2, d + h * d2), h)
    x4, y4, p4, v4, d4 = rates((x + dt * x3, y + dt * y3, psi + dt * p3,
                                v + dt * v3, d + dt * d3), dt)
    w = dt / 6.0
    steer = d + w * (d1 + 2 * d2 + 2 * d3 + d4)
    # clamps as min(max(value, lower), upper) does, without the calls
    bound = params.max_steer   # inf never clamps
    steer = -bound if steer < -bound else steer
    steer = bound if steer > bound else steer
    speed = v + w * (v1 + 2 * v2 + 2 * v3 + v4)
    return VehicleState(x + w * (x1 + 2 * x2 + 2 * x3 + x4),
                        y + w * (y1 + 2 * y2 + 2 * y3 + y4),
                        psi + w * (p1 + 2 * p2 + 2 * p3 + p4),
                        0.0 if speed < 0.0 else speed,
                        steer)
