"""Closed-loop scenario runner: desired trajectory + controller + vehicle
integrated together on the trajectory's terrain surface, with full per-step
logging, summary metrics, and the writer and reader of the log CSV.

The control law is re-evaluated at every integration stage, so the simulated
system is the continuous closed loop rather than a zero-order-hold
approximation; logged commands are the step-start evaluations.  Runs are
deterministic: identical scenarios produce identical logs byte for byte.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import vehicle
from .control import GainConfig, control_step, reference_rows
from .local_path import SAMPLE_BLOCK, DesiredTrajectory
from .terrain import OutOfBoundsError, parse_numeric_rows, read_lines
from .vehicle import (
    SingularSpeedError,
    VehicleParams,
    VehicleState,
    frame_and_motion,
    normal_force,
    step_dynamics,
)

STATUS_COMPLETED = "completed"
STATUS_NORMAL_FORCE = "normal_force_violation"
STATUS_LEFT_GRID = "left_grid"
STATUS_SINGULAR_SPEED = "singular_speed"
STATUS_OVERFLOW = "overflow"

# Longest run accepted.  The log holds about 0.13 KB per step until it is
# written (peak RSS growth of completed case-study runs between dt 1e-3 and
# 5e-5 s, 9749 and 194964 steps) and the reference is sampled in blocks of
# fixed size, so a run at the cap peaks near 0.2 GB.
MAX_STEPS = 10**6


@dataclass
class Scenario:
    trajectory: DesiredTrajectory
    gains: GainConfig
    params: VehicleParams
    dt: float = 0.01
    duration: float | None = None          # None: the trajectory's, set on init
    initial_state: VehicleState | None = None  # None: aligned on the reference
    fn_policy: str = "halt"                # halt | warn on normal-force loss

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.fn_policy not in ("halt", "warn"):
            raise ValueError("fn_policy must be 'halt' or 'warn'")
        if self.duration is None:
            self.duration = self.trajectory.duration
        elif self.duration < self.trajectory.duration - 1e-9:
            raise ValueError(f"duration {self.duration} s is shorter than the trajectory's "
                             f"{self.trajectory.duration:.6g} s")
        if self.duration / self.dt > MAX_STEPS:
            raise ValueError(f"a {self.duration:.6g} s run at dt {self.dt} s takes more than "
                             f"{MAX_STEPS} steps")


# The log's columns, in the order of TrajectoryLog.table and of log.csv.
LOG_COLUMNS = "t_s,x,y,z,psi,vT,delta,xd,yd,zd,aT_cmd,gamma_cmd,FN,errE,clamped"
_COLUMN = {name: i for i, name in enumerate(LOG_COLUMNS.split(","))}


@dataclass
class TrajectoryLog:
    """One row per logged step, in LOG_COLUMNS order (clamped is 0.0 or
    1.0), plus the run outcome; ``log["x"]`` is a column."""

    table: np.ndarray   # (steps, 15) floats
    status: str

    def __getitem__(self, name: str) -> np.ndarray:
        return self.table[:, _COLUMN[name]]

    def __len__(self) -> int:
        return len(self.table)


@dataclass
class TrackingSummary:
    max_err: float
    t_max_err: float
    min_normal_force: float


def aligned_initial_state(trajectory: DesiredTrajectory) -> VehicleState:
    """Unsteered state whose velocity matches the reference at t=0.

    Yaw is solved so the heading's planar projection is parallel to the
    reference planar velocity; speed is the full reference speed, which
    makes the 3-D velocities equal because both are surface tangent.
    """
    sample = trajectory.sample(np.zeros(1))
    x, y, _ = sample.position[0].tolist()
    vx, vy, _ = sample.velocity[0].tolist()
    speed = float(np.linalg.norm(sample.velocity[0]))

    if math.hypot(vx, vy) < 1e-12:
        heading = 0.0
    else:
        # at zero yaw the body axes are the surface axes i_t, j_t, and at rest
        # the parameters do not enter them.  This set-up query goes through
        # the vehicle module: per-stage profiling counts the calls through
        # this module's frame_and_motion, which are the loop's stages.
        motion = vehicle.frame_and_motion(trajectory.surface, x, y, 0.0, 0.0, 0.0,
                                          VehicleParams())
        i_x, i_y, _, j_x, j_y = motion[6:11]
        # solve c i_t + s j_t = (vx, vy) in the plane for the heading (c, s)
        det = i_x * j_y - j_x * i_y
        heading = math.atan2((i_x * vy - i_y * vx) / det, (vx * j_y - j_x * vy) / det)
    return VehicleState(x=x, y=y, psi=heading, speed=speed, steer=0.0)


# The statuses of the errors that stop a run before its end.
# A float ``**`` raises OverflowError where ``*`` would return inf.
_STOP_STATUS = {OutOfBoundsError: STATUS_LEFT_GRID, SingularSpeedError: STATUS_SINGULAR_SPEED,
                OverflowError: STATUS_OVERFLOW}


def run_simulation(scenario: Scenario) -> TrajectoryLog:
    traj = scenario.trajectory
    surface = traj.surface
    params = scenario.params
    gains = scenario.gains
    dt = scenario.dt
    n_steps = int(math.floor(scenario.duration / dt + 1e-9))

    state = scenario.initial_state or aligned_initial_state(traj)

    rows_out = array("d")   # the log's rows, end to end
    status = STATUS_COMPLETED

    def reference_steps():
        # The reference is open-loop, so it is sampled ahead, one block of steps
        # per call, at each step's start, middle and end.  Past the trajectory
        # end a row holds the end point at rest (see reference_rows); the 1e-9 dt
        # slack of n_steps keeps a run of the trajectory's own length clear of it.
        for k0 in range(0, n_steps + 1, SAMPLE_BLOCK // 3):
            start = np.arange(k0, min(k0 + SAMPLE_BLOCK // 3, n_steps + 1)) * dt
            times = np.column_stack([start, start + 0.5 * dt, start + dt]).ravel()
            rows = reference_rows(traj.sample(np.minimum(times, traj.duration)),
                                  times > traj.duration + 1e-9 * dt)
            yield from zip(rows[::3], rows[1::3], rows[2::3])

    def rates(s: tuple, h: float) -> tuple:
        # the closed loop at time t + h of the current step; one surface query
        # per stage, shared by the control law and the dynamics
        motion = frame_and_motion(surface, *s, params)
        (a_t, gamma), _ = control_step(motion, s, mid if h < dt else end, gains, params)
        # x_dot, y_dot and psi_dot (see vehicle.MOTION_FIELDS), then the inputs
        return motion[15], motion[16], motion[21], a_t, gamma

    for k, (desired, mid, end) in enumerate(reference_steps()):
        try:
            motion = frame_and_motion(surface, *state, params)
            (a_t, gamma), clamped = control_step(motion, state, desired, gains, params)
            fn = normal_force(motion, params)
            x, y, psi, speed, steer = state
            # errE is filled in below, from the whole table at once
            rows_out.extend((k * dt, x, y, motion[0], psi, speed, steer,
                             desired[0], desired[1], desired[2], a_t, gamma, fn,
                             0.0, clamped))

            if fn <= 0.0:
                status = STATUS_NORMAL_FORCE
                if scenario.fn_policy == "halt":
                    break
            if k == n_steps:
                break

            # the step-start evaluation logged above is the first RK4 stage
            state = step_dynamics(state, rates, params, dt,
                                  (motion[15], motion[16], motion[21], a_t, gamma))
        except tuple(_STOP_STATUS) as exc:
            status = _STOP_STATUS[type(exc)]
            break

    log = TrajectoryLog(np.frombuffer(rows_out).reshape(-1, len(_COLUMN)), status)
    log["errE"][:] = np.hypot(log["x"] - log["xd"], log["y"] - log["yd"])
    return log


def tracking_metrics(log: TrajectoryLog) -> TrackingSummary:
    """The largest planar error, its time, and the minimum contact force."""
    if len(log) == 0:
        raise ValueError("log is empty")
    err = log["errE"]
    i_max = int(np.argmax(err))
    return TrackingSummary(
        max_err=float(err[i_max]),
        t_max_err=float(log["t_s"][i_max]),
        min_normal_force=float(log["FN"].min()),
    )


def write_log_csv(log: TrajectoryLog, path: str) -> None:
    """The log as CSV (LOG_COLUMNS), formatted in blocks of SAMPLE_BLOCK rows,
    each converted to floats with one ``.tolist()``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_COLUMNS + "\n")
        for k0 in range(0, len(log), SAMPLE_BLOCK):
            fh.write("".join(
                ",".join(map(repr, vals[:-1])) + (",1\n" if vals[-1] else ",0\n")
                for vals in log.table[k0:k0 + SAMPLE_BLOCK].tolist()))


def read_log_csv(path: str) -> dict[str, np.ndarray]:
    """The numeric columns of a log CSV written by write_log_csv, keyed by
    header name."""
    lines, numbers = read_lines(path)
    if not lines or lines[0].strip() != LOG_COLUMNS:
        raise ValueError(f"{path}: not a simulation log CSV")
    data = parse_numeric_rows(lines[1:], len(_COLUMN), path, numbers[1:])
    return dict(zip(_COLUMN, data.T))
