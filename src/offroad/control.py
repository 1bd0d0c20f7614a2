"""Feedback-linearization tracking controller.

Planar acceleration command: reference feedforward plus proportional terms on
velocity and position error.  The resulting tracking error obeys the linear
second-order dynamics

    error_ddot + k1 * error_dot + k2 * error = 0

which is asymptotically stable for positive gains.  The vertical component is
not commanded independently: it follows from the surface constraint, and the
completed acceleration vector is inverted through the vehicle model into a
tangential-acceleration and steering-rate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_path import DesiredSample
from .terrain import SurfaceModel, surface_lift
from .vehicle import (
    ControlInput,
    VehicleParams,
    VehicleState,
    accel_to_controls,
    clamp_control,
    frame_and_motion,
)


@dataclass(frozen=True)
class GainConfig:
    k1: float  # velocity-error gain, 1/s
    k2: float  # position-error gain, 1/s^2

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError("both gains must be positive for stability")

    def poles(self) -> tuple[complex, complex]:
        """Roots of s^2 + k1 s + k2: the closed-loop error modes."""
        disc = self.k1 * self.k1 - 4.0 * self.k2
        root = np.sqrt(complex(disc))
        return (-self.k1 + root) / 2.0, (-self.k1 - root) / 2.0


def commanded_planar_accel(
    position: np.ndarray, velocity: np.ndarray, desired: DesiredSample,
    gains: GainConfig,
) -> tuple[float, float]:
    """Planar acceleration command from feedforward plus error feedback."""
    ex = desired.position[0] - position[0]
    ey = desired.position[1] - position[1]
    evx = desired.velocity[0] - velocity[0]
    evy = desired.velocity[1] - velocity[1]
    ax = desired.acceleration[0] + gains.k1 * evx + gains.k2 * ex
    ay = desired.acceleration[1] + gains.k1 * evy + gains.k2 * ey
    return float(ax), float(ay)


def control_step(
    state: VehicleState, desired: DesiredSample, gains: GainConfig,
    surface: SurfaceModel, params: VehicleParams,
    ctx=None,
) -> tuple[ControlInput, bool]:
    """One controller evaluation: commanded acceleration lifted through the
    surface constraint and inverted to (accel, steer_rate).

    Returns the actuator-clamped input and whether clamping engaged.  A
    precomputed MotionContext for the current state may be passed to avoid a
    second surface query.
    """
    if ctx is None:
        ctx = frame_and_motion(surface, state, params)
    r_dot = ctx.r_dot
    ax, ay = commanded_planar_accel(
        np.array([state.x, state.y]), r_dot[:2], desired, gains)
    _, az = surface_lift(ctx.jet, r_dot[0], r_dot[1], ax, ay)
    raw = accel_to_controls(state, ctx.frame, ctx.omega_b,
                            np.array([ax, ay, az]), params)
    return clamp_control(raw, params)
