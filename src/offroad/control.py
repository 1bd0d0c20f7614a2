"""Feedback-linearization tracking controller.

Planar acceleration command: reference feedforward plus proportional terms on
velocity and position error.  The resulting tracking error obeys the linear
second-order dynamics

    error_ddot + k1 * error_dot + k2 * error = 0

which is asymptotically stable for positive gains.  The vertical component is
not commanded independently: it follows from the surface constraint, and the
completed acceleration vector is inverted through the vehicle model into a
tangential-acceleration and steering-rate pair.

control_step works on the float tuple of vehicle.frame_and_motion, which is
exported here too, and on reference rows built by reference_rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_path import DesiredSample
from .terrain import surface_lift
from .vehicle import SingularSpeedError, VehicleParams, frame_and_motion

__all__ = ["GainConfig", "HOLD", "control_step", "frame_and_motion", "reference_rows"]

# The inputs once the reference has ended and the speed is below the control
# guard: no acceleration, no steering.  They do not stop the car: it rolls on
# at the speed it has and drifts from the end point (ROADMAP item 11).
HOLD = (0.0, 0.0)


# slots: without them each default is also a class attribute, and CPython
# does not specialise an instance read of a name its class also holds, which
# control_step does at every RK4 stage
@dataclass(frozen=True, slots=True)
class GainConfig:
    k1: float = 10.0  # velocity-error gain, 1/s
    k2: float = 20.0  # position-error gain, 1/s^2

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError("both gains must be positive for stability")


def reference_rows(sample: DesiredSample, ended: np.ndarray) -> list[list[float]]:
    """The rows control_step reads, one per time of a batch sample:

        [x_d, y_d, z_d, vx_d, vy_d, ax_d, ay_d, ended]

    all floats, built with one ``.tolist()``.  Where ``ended`` is true the
    trajectory is over: the row keeps the sampled (end) position and has zero
    velocity and acceleration.
    """
    moving = ~ended[:, None]
    return np.column_stack([
        sample.position,
        np.where(moving, sample.velocity[:, :2], 0.0),
        np.where(moving, sample.acceleration[:, :2], 0.0),
        ended,
    ]).tolist()


def control_step(
    motion: tuple, state: tuple, ref: list, gains: GainConfig, params: VehicleParams,
) -> tuple[tuple[float, float], bool]:
    """One controller evaluation at the state tuple (x, y, psi, speed, steer)
    whose frame_and_motion tuple is ``motion``, against the reference row
    ``ref`` (see reference_rows).

    The planar command is lifted through the surface constraint to r_ddot
    and inverted: with u = r_dot / v the steered direction and w = k_b x u
    its left perpendicular in the body plane, the inputs satisfy
    r_ddot = a_T u + v gamma w + omega_b x r_dot, so

        a_T = (r_ddot - omega_b x r_dot) . r_dot / v
        gamma = k_b . (r_dot x (r_ddot - omega_b x r_dot)) / v^2

    Returns ((a_T, gamma), clamped): the actuator-clamped inputs and whether
    clamping engaged.  Below min_ctrl_speed the inversion is singular: once
    the reference has ended the car is held with zero inputs, before that
    SingularSpeedError is raised.
    """
    (_, _, _, _, _, _, _, _, _, _, _, _, k_x, k_y, k_z,
     x_dot, y_dot, z_dot, w_x, w_y, w_z, _) = motion
    x_d, y_d, _, vx_d, vy_d, ax_d, ay_d, ended = ref
    v = state[3]
    if v < params.min_ctrl_speed:
        if ended:
            return HOLD, False
        raise SingularSpeedError(
            f"speed {v:.4f} m/s below control threshold "
            f"{params.min_ctrl_speed}; steering-rate inversion is singular"
        )
    k1, k2 = gains.k1, gains.k2
    a_x = ax_d + k1 * (vx_d - x_dot) + k2 * (x_d - state[0])
    a_y = ay_d + k1 * (vy_d - y_dot) + k2 * (y_d - state[1])
    _, a_z = surface_lift(motion, x_dot, y_dot, a_x, a_y)
    # the in-plane part of r_ddot: remove the frame-rotation term omega_b x r_dot
    e_x = a_x - (w_y * z_dot - w_z * y_dot)
    e_y = a_y - (w_z * x_dot - w_x * z_dot)
    e_z = a_z - (w_x * y_dot - w_y * x_dot)
    a_t = (e_x * x_dot + e_y * y_dot + e_z * z_dot) / v
    gamma = (k_x * (y_dot * e_z - z_dot * e_y) + k_y * (z_dot * e_x - x_dot * e_z)
             + k_z * (x_dot * e_y - y_dot * e_x)) / (v * v)
    # clamp as min(max(value, -bound), bound) does, without the calls
    bound = params.max_accel   # inf (the default) never clamps
    a = -bound if a_t < -bound else a_t
    a = bound if a > bound else a
    bound = params.max_steer_rate
    g = -bound if gamma < -bound else gamma
    g = bound if g > bound else g
    return (a, g), (a != a_t) or (g != gamma)
