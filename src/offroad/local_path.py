"""Waypoints to drivable trajectories: piecewise line+arc planar paths, a
speed-behavior state machine, accel-limited speed profiles, and time-sampled
references with ground-frame derivatives.

At each interior waypoint where the incoming and outgoing headings differ, a
circular fillet of the configured radius is inserted tangent to both legs:
the tangency points sit ``radius * tan(turn/2)`` back from the corner along
each leg, and the arc center lies on the corner bisector.  Collinear runs
merge into single lines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .terrain import SurfaceModel, surface_lift

COLLINEAR_TOL = 1e-9


class GeometryError(ValueError):
    """Raised when waypoints cannot be joined by tangent fillets."""


class ProfileError(ValueError):
    """Raised when no speed profile satisfies the turn commands."""


# ---------------------------------------------------------------------------
# Path geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineSegment:
    start: np.ndarray
    end: np.ndarray

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    @property
    def direction(self) -> np.ndarray:
        d = self.end - self.start
        return d / np.linalg.norm(d)

    def point_at(self, s: float) -> np.ndarray:
        return self.start + self.direction * s

    def tangent_at(self, s: float) -> np.ndarray:
        return self.direction

    @property
    def curvature(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ArcSegment:
    center: np.ndarray
    radius: float
    angle_start: float   # angle of (start - center)
    sweep: float         # signed; positive = counterclockwise

    @property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    def point_at(self, s: float) -> np.ndarray:
        ang = self.angle_start + math.copysign(s / self.radius, self.sweep)
        return self.center + self.radius * np.array([math.cos(ang), math.sin(ang)])

    def tangent_at(self, s: float) -> np.ndarray:
        ang = self.angle_start + math.copysign(s / self.radius, self.sweep)
        t = np.array([-math.sin(ang), math.cos(ang)])
        return t if self.sweep > 0 else -t

    @property
    def curvature(self) -> float:
        # signed: positive curves left (counterclockwise)
        return math.copysign(1.0 / self.radius, self.sweep)


@dataclass
class PathGeometry:
    """Tangent-continuous sequence of lines and arcs, arc-length addressable."""

    segments: list
    breakpoints: np.ndarray = field(init=False)  # cumulative lengths, len = n+1

    def __post_init__(self):
        lengths = [seg.length for seg in self.segments]
        self.breakpoints = np.concatenate([[0.0], np.cumsum(lengths)])

    @property
    def total_length(self) -> float:
        return float(self.breakpoints[-1])

    def locate(self, s: float) -> tuple[int, float]:
        """Segment index and local arc length for global s; right-continuous
        at joins."""
        if s < -1e-9 or s > self.total_length + 1e-9:
            raise ValueError(f"arc length {s} outside [0, {self.total_length}]")
        s = min(max(s, 0.0), self.total_length)
        idx = int(np.searchsorted(self.breakpoints, s, "right")) - 1
        idx = min(max(idx, 0), len(self.segments) - 1)
        return idx, s - self.breakpoints[idx]

    def point_at(self, s: float) -> np.ndarray:
        idx, local = self.locate(s)
        return self.segments[idx].point_at(local)

    def tangent_at(self, s: float) -> np.ndarray:
        idx, local = self.locate(s)
        return self.segments[idx].tangent_at(local)

    def curvature_at(self, s: float) -> float:
        idx, _ = self.locate(s)
        return self.segments[idx].curvature


def segment_slope(p_a, p_b) -> float:
    """Planar slope dy/dx of the segment from p_a to p_b; math.inf if vertical."""
    ax, ay = float(p_a[0]), float(p_a[1])
    bx, by = float(p_b[0]), float(p_b[1])
    if ax == bx and ay == by:
        raise ValueError("segment endpoints coincide")
    if bx == ax:
        return math.inf
    return (by - ay) / (bx - ax)


def slopes_equal(mu_a: float, mu_b: float, tol: float = COLLINEAR_TOL) -> bool:
    if math.isinf(mu_a) or math.isinf(mu_b):
        return math.isinf(mu_a) and math.isinf(mu_b)
    return abs(mu_a - mu_b) < tol


def plan_geometry(waypoints, rho: float) -> PathGeometry:
    """Join waypoints with straight lines and radius-rho fillet arcs.

    Collinear interior waypoints (same heading within tolerance) are merged.
    Raises GeometryError for reversals and for corners whose tangent offset
    does not fit on the adjoining legs.
    """
    pts = [np.asarray(p, dtype=float) for p in waypoints]
    if len(pts) < 2:
        raise GeometryError("need at least two waypoints")
    if not rho > 0:
        raise GeometryError("turn radius must be positive")
    for a, b in zip(pts, pts[1:]):
        if np.linalg.norm(b - a) < 1e-12:
            raise GeometryError("consecutive waypoints coincide")

    # merge collinear runs so corners are genuine heading changes
    kept = [pts[0]]
    for k in range(1, len(pts) - 1):
        d_in = pts[k] - kept[-1]
        d_out = pts[k + 1] - pts[k]
        d_in = d_in / np.linalg.norm(d_in)
        d_out = d_out / np.linalg.norm(d_out)
        cross = d_in[0] * d_out[1] - d_in[1] * d_out[0]
        dot = float(d_in @ d_out)
        if abs(cross) < COLLINEAR_TOL:
            if dot < 0:
                raise GeometryError(f"reversal at waypoint {k}: no finite fillet exists")
            continue
        kept.append(pts[k])
    kept.append(pts[-1])

    if len(kept) == 2:
        return PathGeometry(segments=[LineSegment(start=kept[0], end=kept[1])])

    segments = []
    cursor = kept[0]           # where the pending line currently starts
    # per-corner tangent offsets must also fit together on shared legs
    offsets = []
    for k in range(1, len(kept) - 1):
        d_in = kept[k] - kept[k - 1]
        d_out = kept[k + 1] - kept[k]
        len_in = np.linalg.norm(d_in)
        len_out = np.linalg.norm(d_out)
        d_in = d_in / len_in
        d_out = d_out / len_out
        cross = d_in[0] * d_out[1] - d_in[1] * d_out[0]
        dot = float(np.clip(d_in @ d_out, -1.0, 1.0))
        turn = math.atan2(cross, dot)  # signed heading change
        offset = rho * math.tan(abs(turn) / 2.0)
        offsets.append((turn, offset, d_in, d_out, len_in, len_out))

    for k, (turn, offset, d_in, d_out, len_in, len_out) in enumerate(offsets):
        corner = kept[k + 1]
        avail_in = len_in - (offsets[k - 1][1] if k > 0 else 0.0)
        avail_out = len_out - (offsets[k + 1][1] if k + 1 < len(offsets) else 0.0)
        if offset > avail_in + 1e-12 or offset > avail_out + 1e-12:
            raise GeometryError(
                f"fillet offset {offset:.4f} m at waypoint {k + 1} exceeds the "
                "available leg length; reduce the turn radius or respace waypoints"
            )
        entry = corner - d_in * offset
        exit_ = corner + d_out * offset
        if np.linalg.norm(entry - cursor) > 1e-12:
            segments.append(LineSegment(start=cursor, end=entry))
        # center sits perpendicular to the incoming leg, on the turn side
        left = np.array([-d_in[1], d_in[0]])
        center = entry + math.copysign(rho, turn) * left
        angle_start = math.atan2(entry[1] - center[1], entry[0] - center[0])
        segments.append(ArcSegment(center=center, radius=rho,
                                   angle_start=angle_start, sweep=turn))
        cursor = exit_

    if np.linalg.norm(kept[-1] - cursor) > 1e-12:
        segments.append(LineSegment(start=cursor, end=kept[-1]))
    return PathGeometry(segments=segments)


# ---------------------------------------------------------------------------
# Speed-behavior state machine
# ---------------------------------------------------------------------------

class SpeedState(enum.Enum):
    """Decision nodes test one proposition each; ACC/DEC/CV are terminal."""

    CHECK_CONTACT = "contact force positive"
    CHECK_STRAIGHT = "consecutive segment slopes equal"
    CHECK_BELOW_NOMINAL = "speed below nominal"
    CHECK_AT_NOMINAL = "speed at nominal"
    CHECK_TURN_FEASIBLE = "nominal yaw rate within bound"
    ACC = "ACC"
    DEC = "DEC"
    CV = "CV"

    @property
    def terminal(self) -> bool:
        return self in (SpeedState.ACC, SpeedState.DEC, SpeedState.CV)


INITIAL_SPEED_STATE = SpeedState.CHECK_CONTACT

# state -> (successor when satisfied, successor when violated)
_SPEED_TRANSITIONS = {
    SpeedState.CHECK_CONTACT: (SpeedState.CHECK_STRAIGHT, SpeedState.DEC),
    SpeedState.CHECK_STRAIGHT: (SpeedState.CHECK_BELOW_NOMINAL, SpeedState.CHECK_TURN_FEASIBLE),
    SpeedState.CHECK_BELOW_NOMINAL: (SpeedState.ACC, SpeedState.CHECK_AT_NOMINAL),
    SpeedState.CHECK_AT_NOMINAL: (SpeedState.CV, SpeedState.DEC),
    SpeedState.CHECK_TURN_FEASIBLE: (SpeedState.CHECK_BELOW_NOMINAL, SpeedState.DEC),
}


@dataclass(frozen=True)
class SpeedInputs:
    """Inputs the machine reads: current speed, the slopes of the segments
    entering and leaving the upcoming waypoint, and contact-force validity."""

    speed: float
    slope_in: float
    slope_out: float
    contact_ok: bool = True


@dataclass(frozen=True)
class TrajectoryConfig:
    nominal_speed: float          # commanded cruise speed
    turn_radius: float
    max_yaw_rate: float
    accel: float = 1.0
    decel: float = 1.0
    initial_speed: float | None = None   # None: start from rest
    max_lateral_accel: float | None = None  # optional second turn-speed bound

    def __post_init__(self):
        for name in ("nominal_speed", "turn_radius", "max_yaw_rate", "accel", "decel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def turn_speed(self, radius: float | None = None) -> float:
        """Command speed on an arc: nominal capped by the yaw-rate bound and,
        when configured, by the lateral-acceleration bound."""
        r = self.turn_radius if radius is None else radius
        v = min(self.nominal_speed, r * self.max_yaw_rate)
        if self.max_lateral_accel is not None:
            v = min(v, math.sqrt(self.max_lateral_accel * r))
        return v


def _proposition(state: SpeedState, inputs: SpeedInputs, config: TrajectoryConfig) -> bool:
    if state is SpeedState.CHECK_CONTACT:
        return inputs.contact_ok
    if state is SpeedState.CHECK_STRAIGHT:
        return slopes_equal(inputs.slope_in, inputs.slope_out)
    if state is SpeedState.CHECK_BELOW_NOMINAL:
        return inputs.speed < config.nominal_speed - 1e-9
    if state is SpeedState.CHECK_AT_NOMINAL:
        return abs(inputs.speed - config.nominal_speed) <= 1e-9
    if state is SpeedState.CHECK_TURN_FEASIBLE:
        return config.nominal_speed / config.turn_radius <= config.max_yaw_rate
    raise ValueError(f"{state} is terminal")


def step_speed_machine(
    state: SpeedState, inputs: SpeedInputs, config: TrajectoryConfig
) -> SpeedState:
    """One transition: evaluate the state's proposition and follow the
    satisfied or violated edge.  Terminal states return themselves."""
    if state.terminal:
        return state
    satisfied, violated = _SPEED_TRANSITIONS[state]
    return satisfied if _proposition(state, inputs, config) else violated


def run_speed_machine(
    inputs: SpeedInputs, config: TrajectoryConfig
) -> tuple[SpeedState, float, list[SpeedState]]:
    """Run from the initial state to a terminal one.

    Returns (terminal state, commanded speed, visited state sequence).
    """
    state = INITIAL_SPEED_STATE
    visited = [state]
    while not state.terminal:
        state = step_speed_machine(state, inputs, config)
        visited.append(state)
    straight = slopes_equal(inputs.slope_in, inputs.slope_out)
    command = config.nominal_speed if straight else config.turn_speed()
    return state, command, visited


# ---------------------------------------------------------------------------
# Speed profile: piecewise constant-acceleration v(s) honoring per-segment
# command speeds, ramped at the configured accel/decel magnitudes.
# ---------------------------------------------------------------------------

@dataclass
class SpeedProfile:
    """Arc-length pieces of constant acceleration with a time parametrization.

    Piece i covers s in [s_pts[i], s_pts[i+1]) starting at speed v_pts[i]
    with tangential acceleration a_vals[i]; t_pts gives cumulative time.
    """

    s_pts: np.ndarray
    v_pts: np.ndarray
    a_vals: np.ndarray
    t_pts: np.ndarray = field(init=False)

    def __post_init__(self):
        times = [0.0]
        for i in range(len(self.a_vals)):
            ds = self.s_pts[i + 1] - self.s_pts[i]
            v0, a = self.v_pts[i], self.a_vals[i]
            if abs(a) < 1e-12:
                if v0 <= 1e-12:
                    raise ProfileError("profile stalls: zero speed with zero acceleration")
                dt = ds / v0
            else:
                v1 = math.sqrt(max(v0 * v0 + 2 * a * ds, 0.0))
                dt = (v1 - v0) / a
            times.append(times[-1] + dt)
        self.t_pts = np.array(times)

    @property
    def duration(self) -> float:
        return float(self.t_pts[-1])

    @property
    def total_length(self) -> float:
        return float(self.s_pts[-1])

    def sample(self, t: float) -> tuple[float, float, float]:
        """(arc length, speed, tangential acceleration) at time t."""
        if t < -1e-9 or t > self.duration + 1e-9:
            raise ValueError(f"time {t} outside [0, {self.duration}]")
        t = min(max(t, 0.0), self.duration)
        i = int(np.searchsorted(self.t_pts, t, "right")) - 1
        i = min(max(i, 0), len(self.a_vals) - 1)
        tau = t - self.t_pts[i]
        v0, a = float(self.v_pts[i]), float(self.a_vals[i])
        s = float(self.s_pts[i]) + v0 * tau + 0.5 * a * tau * tau
        return min(s, self.total_length), v0 + a * tau, a

    def time_at_s(self, s: float) -> float:
        """Earliest time at which arc length s is reached."""
        if s < -1e-9 or s > self.total_length + 1e-9:
            raise ValueError(f"arc length {s} outside [0, {self.total_length}]")
        s = min(max(s, 0.0), self.total_length)
        i = int(np.searchsorted(self.s_pts, s, "right")) - 1
        i = min(max(i, 0), len(self.a_vals) - 1)
        ds = s - self.s_pts[i]
        v0, a = float(self.v_pts[i]), float(self.a_vals[i])
        if abs(a) < 1e-12:
            return float(self.t_pts[i]) + ds / v0
        v1 = math.sqrt(max(v0 * v0 + 2 * a * ds, 0.0))
        return float(self.t_pts[i]) + (v1 - v0) / a

    def phase_at(self, t: float) -> str:
        _, _, a = self.sample(t)
        if a > 1e-12:
            return "ACC"
        if a < -1e-12:
            return "DEC"
        return "CV"


def build_speed_profile(geometry: PathGeometry, config: TrajectoryConfig) -> SpeedProfile:
    """Two-pass (forward accel, backward decel) profile over the geometry.

    Each segment carries a command speed: nominal on lines, the yaw-rate
    limited turn speed on arcs.  Ramps are placed so arc entry speed already
    satisfies the arc command; if the initial speed cannot be slowed in time
    for the first constraining arc, a ProfileError suggests a smaller nominal
    or initial speed.
    """
    commands = []
    for seg in geometry.segments:
        if isinstance(seg, ArcSegment):
            commands.append(config.turn_speed(seg.radius))
        else:
            commands.append(config.nominal_speed)

    bounds = geometry.breakpoints
    n = len(commands)
    v_init = 0.0 if config.initial_speed is None else float(config.initial_speed)

    # backward pass: fastest admissible entry speed per boundary
    back = np.empty(n + 1)
    back[n] = math.inf
    for i in range(n - 1, -1, -1):
        length = bounds[i + 1] - bounds[i]
        reachable = math.sqrt(back[i + 1] ** 2 + 2 * config.decel * length) \
            if math.isfinite(back[i + 1]) else math.inf
        back[i] = min(commands[i], reachable)
    if v_init > back[0] + 1e-9:
        raise ProfileError(
            f"initial speed {v_init} cannot decelerate to the first turn command "
            f"within {bounds[1]:.3f} m; reduce the nominal or initial speed"
        )

    s_pts = [0.0]
    v_pts = [min(v_init, back[0])]
    a_vals = []

    for i in range(n):
        length = bounds[i + 1] - bounds[i]
        cmd = commands[i]
        v_in = v_pts[-1]
        v_out = min(cmd, back[i + 1],
                    math.sqrt(v_in ** 2 + 2 * config.accel * length))
        # trapezoid inside the segment: accel to a peak, cruise, decel to v_out
        a, d = config.accel, config.decel
        peak = min(cmd, math.sqrt(
            (2 * a * d * length + d * v_in ** 2 + a * v_out ** 2) / (a + d)))
        peak = max(peak, v_in, v_out)  # guard tiny negative roundoff
        s_acc = max((peak ** 2 - v_in ** 2) / (2 * a), 0.0)
        s_dec = max((peak ** 2 - v_out ** 2) / (2 * d), 0.0)
        s_cruise = max(length - s_acc - s_dec, 0.0)
        base = bounds[i]
        if s_acc > 1e-12:
            s_pts.append(base + s_acc)
            v_pts.append(peak)
            a_vals.append(a)
        if s_cruise > 1e-12:
            s_pts.append(base + s_acc + s_cruise)
            v_pts.append(peak)
            a_vals.append(0.0)
        if s_dec > 1e-12:
            s_pts.append(bounds[i + 1])
            v_pts.append(v_out)
            a_vals.append(-d)
        if s_pts[-1] < bounds[i + 1] - 1e-12:
            # degenerate zero-length phases: close the segment explicitly
            s_pts.append(bounds[i + 1])
            v_pts.append(v_out)
            a_vals.append(0.0)
        else:
            s_pts[-1] = bounds[i + 1]

    return SpeedProfile(s_pts=np.array(s_pts), v_pts=np.array(v_pts),
                        a_vals=np.array(a_vals))


# ---------------------------------------------------------------------------
# Time-parametrized desired trajectory over the surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesiredSample:
    position: np.ndarray       # ground frame, z from the surface
    velocity: np.ndarray
    acceleration: np.ndarray
    arc_length: float
    segment_index: int
    phase: str                 # ACC | DEC | CV


class DesiredTrajectory:
    """Maps time to desired position/velocity/acceleration in the ground frame.

    Planar motion follows the geometry at the profile speed; the vertical
    component is lifted through the surface model and its chain-rule
    derivatives, so the reference always lies on the terrain.
    """

    def __init__(self, geometry: PathGeometry, profile: SpeedProfile,
                 surface: SurfaceModel):
        if abs(geometry.total_length - profile.total_length) > 1e-6:
            raise ValueError("profile and geometry lengths disagree")
        self.geometry = geometry
        self.profile = profile
        self.surface = surface

    @property
    def duration(self) -> float:
        return self.profile.duration

    def sample(self, t: float) -> DesiredSample:
        s, v, v_dot = self.profile.sample(t)
        idx, local = self.geometry.locate(s)
        seg = self.geometry.segments[idx]
        p = seg.point_at(local)
        tangent = seg.tangent_at(local)
        kappa = seg.curvature

        x_dot, y_dot = v * tangent
        # planar acceleration: tangential ramp plus centripetal on arcs
        normal = np.array([-tangent[1], tangent[0]])  # left of travel
        acc_planar = v_dot * tangent + v * v * kappa * normal

        jet = self.surface.eval(p[0], p[1])
        z_dot, z_ddot = surface_lift(jet, x_dot, y_dot, acc_planar[0], acc_planar[1])

        return DesiredSample(
            position=np.array([p[0], p[1], jet[0]]),
            velocity=np.array([x_dot, y_dot, z_dot]),
            acceleration=np.array([acc_planar[0], acc_planar[1], z_ddot]),
            arc_length=s,
            segment_index=idx,
            phase=self.profile.phase_at(t),
        )


TRAJECTORY_COLUMNS = "t_s,xd_m,yd_m,zd_m,vxd,vyd,vzd,axd,ayd,azd,segment_id,phase"


def write_trajectory_csv(traj: DesiredTrajectory, dt: float, path: str) -> None:
    lines = [TRAJECTORY_COLUMNS]
    n_steps = int(math.floor(traj.duration / dt + 1e-9))
    for k in range(n_steps + 1):
        t = min(k * dt, traj.duration)
        s = traj.sample(t)
        vals = [t, *s.position, *s.velocity, *s.acceleration]
        lines.append(",".join(repr(float(v)) for v in vals)
                     + f",{s.segment_index},{s.phase}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
