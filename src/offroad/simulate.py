"""Closed-loop scenario runner: terrain + desired trajectory + controller +
vehicle integrated together, with full per-step logging and summary metrics.

The control law is re-evaluated at every integration stage, so the simulated
system is the continuous closed loop rather than a zero-order-hold
approximation; logged commands are the step-start evaluations.  Runs are
deterministic: identical scenarios produce identical logs byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import GainConfig, control_step
from .local_path import ArcSegment, DesiredTrajectory
from .terrain import OutOfBoundsError, SurfaceModel, euler_angles, normal_with_gradient
from .vehicle import (
    SingularSpeedError,
    VehicleParams,
    VehicleState,
    body_frame,
    frame_and_motion,
    normal_force,
    realized_acceleration,
    state_rates,
    step_dynamics,
)

STATUS_COMPLETED = "completed"
STATUS_NORMAL_FORCE = "normal_force_violation"
STATUS_LEFT_GRID = "left_grid"
STATUS_SINGULAR_SPEED = "singular_speed"


@dataclass
class Scenario:
    surface: SurfaceModel
    trajectory: DesiredTrajectory
    gains: GainConfig
    params: VehicleParams
    dt: float = 0.01
    duration: float | None = None          # None: the trajectory duration
    initial_state: VehicleState | None = None  # None: aligned on the reference
    fn_policy: str = "halt"                # halt | warn on normal-force loss

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.fn_policy not in ("halt", "warn"):
            raise ValueError("fn_policy must be 'halt' or 'warn'")
        if self.duration is not None and self.duration < self.trajectory.duration - 1e-9:
            raise ValueError("duration must cover the trajectory duration")


@dataclass
class TrajectoryLog:
    """Per-step channels (equal-length arrays) plus the run outcome."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    psi: np.ndarray
    speed: np.ndarray
    steer: np.ndarray
    xd: np.ndarray
    yd: np.ndarray
    zd: np.ndarray
    accel_cmd: np.ndarray
    steer_rate_cmd: np.ndarray
    fn: np.ndarray
    err: np.ndarray                 # planar position error norm
    clamped: np.ndarray             # bool
    seg_kind: np.ndarray            # "line" | "arc" at the desired sample
    status: str
    dt: float

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class TrackingSummary:
    max_err: float
    t_max_err: float
    mean_err: float
    final_err: float
    min_normal_force: float
    max_err_by_kind: dict[str, float] = field(default_factory=dict)
    status: str = STATUS_COMPLETED


def aligned_initial_state(
    trajectory: DesiredTrajectory, surface: SurfaceModel, steer: float = 0.0
) -> VehicleState:
    """State whose velocity matches the reference at t=0 with the given steer.

    Yaw is solved so the steered direction's planar projection is parallel to
    the reference planar velocity; speed is the full reference speed, which
    makes the 3-D velocities equal because both are surface tangent.
    """
    sample = trajectory.sample(0.0)
    x, y = float(sample.position[0]), float(sample.position[1])
    vx, vy = float(sample.velocity[0]), float(sample.velocity[1])
    speed = float(np.linalg.norm(sample.velocity))

    n, _, _ = normal_with_gradient(surface.eval(x, y))
    frame = body_frame(*euler_angles(n), 0.0)
    target = np.array([vx, vy])
    if np.linalg.norm(target) < 1e-12:
        heading = 0.0
    else:
        basis = np.column_stack([frame.i_t[:2], frame.j_t[:2]])
        cs = np.linalg.solve(basis, target)
        heading = math.atan2(cs[1], cs[0])
    return VehicleState(x=x, y=y, psi=heading - steer, speed=speed, steer=steer)


def run_simulation(scenario: Scenario) -> TrajectoryLog:
    traj = scenario.trajectory
    surface = scenario.surface
    params = scenario.params
    gains = scenario.gains
    dt = scenario.dt
    duration = traj.duration if scenario.duration is None else scenario.duration
    # last logged step stays at or before the duration; sampling past the
    # trajectory end would freeze the reference against a moving speed command
    n_steps = int(math.floor(duration / dt + 1e-9))

    state = scenario.initial_state
    if state is None:
        state = aligned_initial_state(traj, surface)

    cols: dict[str, list] = {k: [] for k in (
        "t", "x", "y", "z", "psi", "speed", "steer", "xd", "yd", "zd",
        "accel_cmd", "steer_rate_cmd", "fn", "err", "clamped", "seg_kind")}
    status = STATUS_COMPLETED

    def desired_at(t: float):
        return traj.sample(min(t, traj.duration))

    def rates(s: VehicleState, h: float):
        # the closed loop at time t + h of the current step; one surface query
        # per stage, shared by the control law and the dynamics
        ctx = frame_and_motion(surface, s, params)
        control, _ = control_step(s, desired_at(t + h), gains, surface, params, ctx=ctx)
        return state_rates(ctx, control)

    for k in range(n_steps + 1):
        t = k * dt
        desired = desired_at(t)
        try:
            ctx = frame_and_motion(surface, state, params)
            control, clamped = control_step(state, desired, gains, surface,
                                            params, ctx=ctx)
        except OutOfBoundsError:
            status = STATUS_LEFT_GRID
            break
        except SingularSpeedError:
            status = STATUS_SINGULAR_SPEED
            break
        r_ddot = realized_acceleration(state, control, ctx.frame, ctx.omega_b)
        fn = normal_force(ctx.frame, r_ddot, params)

        seg = traj.geometry.segments[desired.segment_index]
        cols["t"].append(t)
        cols["x"].append(state.x)
        cols["y"].append(state.y)
        cols["z"].append(ctx.jet[0])
        cols["psi"].append(state.psi)
        cols["speed"].append(state.speed)
        cols["steer"].append(state.steer)
        cols["xd"].append(desired.position[0])
        cols["yd"].append(desired.position[1])
        cols["zd"].append(desired.position[2])
        cols["accel_cmd"].append(control.accel)
        cols["steer_rate_cmd"].append(control.steer_rate)
        cols["fn"].append(fn)
        cols["err"].append(math.hypot(state.x - desired.position[0],
                                      state.y - desired.position[1]))
        cols["clamped"].append(clamped)
        cols["seg_kind"].append("arc" if isinstance(seg, ArcSegment) else "line")

        if fn <= 0.0:
            status = STATUS_NORMAL_FORCE
            if scenario.fn_policy == "halt":
                break
        if k == n_steps:
            break

        try:
            # the step-start evaluation logged above is the first RK4 stage
            state = step_dynamics(state, rates, params, dt, state_rates(ctx, control))
        except OutOfBoundsError:
            status = STATUS_LEFT_GRID
            break
        except SingularSpeedError:
            status = STATUS_SINGULAR_SPEED
            break

    return TrajectoryLog(
        t=np.array(cols["t"]),
        x=np.array(cols["x"]), y=np.array(cols["y"]), z=np.array(cols["z"]),
        psi=np.array(cols["psi"]), speed=np.array(cols["speed"]),
        steer=np.array(cols["steer"]),
        xd=np.array(cols["xd"]), yd=np.array(cols["yd"]), zd=np.array(cols["zd"]),
        accel_cmd=np.array(cols["accel_cmd"]),
        steer_rate_cmd=np.array(cols["steer_rate_cmd"]),
        fn=np.array(cols["fn"]), err=np.array(cols["err"]),
        clamped=np.array(cols["clamped"], dtype=bool),
        seg_kind=np.array(cols["seg_kind"]),
        status=status, dt=scenario.dt,
    )


def tracking_metrics(log: TrajectoryLog) -> TrackingSummary:
    """Max/mean planar error, the time of the max, minimum contact force, and
    the worst error seen over line and arc reference phases separately."""
    if len(log) == 0:
        raise ValueError("log is empty")
    i_max = int(np.argmax(log.err))
    by_kind = {}
    for kind in ("line", "arc"):
        sel = log.seg_kind == kind
        if sel.any():
            by_kind[kind] = float(log.err[sel].max())
    return TrackingSummary(
        max_err=float(log.err[i_max]),
        t_max_err=float(log.t[i_max]),
        mean_err=float(log.err.mean()),
        final_err=float(log.err[-1]),
        min_normal_force=float(log.fn.min()),
        max_err_by_kind=by_kind,
        status=log.status,
    )


LOG_COLUMNS = "t_s,x,y,z,psi,vT,delta,xd,yd,zd,aT_cmd,gamma_cmd,FN,errE,clamped"


def write_log_csv(log: TrajectoryLog, path: str) -> None:
    lines = [LOG_COLUMNS]
    for i in range(len(log)):
        vals = [log.t[i], log.x[i], log.y[i], log.z[i], log.psi[i],
                log.speed[i], log.steer[i], log.xd[i], log.yd[i], log.zd[i],
                log.accel_cmd[i], log.steer_rate_cmd[i], log.fn[i], log.err[i]]
        lines.append(",".join(repr(float(v)) for v in vals)
                     + f",{int(log.clamped[i])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
