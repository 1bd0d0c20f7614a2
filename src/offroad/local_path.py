"""Waypoints to drivable trajectories: piecewise line+arc planar paths,
accel-limited speed profiles, and time-sampled references with ground-frame
derivatives.  Each reference sample's phase (ACC, DEC or CV) is the sign of
the profile's acceleration there.

At each interior waypoint where the incoming and outgoing headings differ, a
circular fillet of the configured radius is inserted tangent to both legs:
the tangency points sit ``radius * tan(turn/2)`` back from the corner along
each leg, and the arc center lies on the corner bisector.  Collinear runs
merge into single lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .terrain import SurfaceModel, surface_lift

COLLINEAR_TOL = 1e-9


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

    def point_at(self, s):
        """Point at local arc length s; an array of n lengths gives (n, 2).

        Points stay in the box of the two endpoints, so rounding never puts
        one past an endpoint that lies on the grid's edge.
        """
        return np.clip(self.start + np.multiply.outer(s, self.direction),
                       np.minimum(self.start, self.end), np.maximum(self.start, self.end))

    def tangent_at(self, s):
        return np.broadcast_to(self.direction, np.shape(s) + (2,))

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

    def _angle(self, s):
        return self.angle_start + np.copysign(s / self.radius, self.sweep)

    def point_at(self, s):
        """Point at local arc length s; an array of n lengths gives (n, 2)."""
        ang = self._angle(s)
        return self.center + self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def tangent_at(self, s):
        ang = self._angle(s)
        t = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
        return t if self.sweep > 0 else -t

    @property
    def curvature(self) -> float:
        # signed: positive curves left (counterclockwise)
        return math.copysign(1.0 / self.radius, self.sweep)


@dataclass
class PathGeometry:
    """Tangent-continuous sequence of lines and arcs, arc-length addressable."""

    segments: list
    lengths: np.ndarray = field(init=False)      # per segment, len = n
    breakpoints: np.ndarray = field(init=False)  # cumulative lengths, len = n+1

    def __post_init__(self):
        self.lengths = np.array([seg.length for seg in self.segments])
        self.breakpoints = np.concatenate([[0.0], np.cumsum(self.lengths)])

    @property
    def total_length(self) -> float:
        return float(self.breakpoints[-1])

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segment indices and local arc lengths for a 1-D array of global
        arc lengths; right-continuous at joins."""
        s = _clip_to_range(s, self.total_length, "arc length")
        idx = np.clip(np.searchsorted(self.breakpoints, s, "right") - 1,
                      0, len(self.segments) - 1)
        # a cumulative sum can overshoot a segment's own length by an ulp,
        # which would put the path end just past its last point
        return idx, np.minimum(s - self.breakpoints[idx], self.lengths[idx])


def _clip_to_range(value, upper: float, what: str):
    """value clipped to [0, upper]; ValueError names the first entry more
    than 1e-9 outside it."""
    value = np.asarray(value, dtype=float)
    outside = (value < -1e-9) | (value > upper + 1e-9)
    if outside.any():
        raise ValueError(f"{what} {value.flat[np.argmax(outside)]} outside [0, {upper}]")
    return np.clip(value, 0.0, upper)


def plan_geometry(waypoints, rho: float) -> PathGeometry:
    """Join waypoints with straight lines and radius-rho fillet arcs.

    Collinear interior waypoints (same heading within tolerance) are merged.
    Raises ValueError for reversals and for corners whose tangent offset
    does not fit on the adjoining legs.
    """
    pts = [np.asarray(p, dtype=float) for p in waypoints]
    if len(pts) < 2:
        raise ValueError("need at least two waypoints")
    if not rho > 0:
        raise ValueError("turn radius must be positive")
    for a, b in zip(pts, pts[1:]):
        if np.linalg.norm(b - a) < 1e-12:
            raise ValueError("consecutive waypoints coincide")

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
                raise ValueError(f"reversal at waypoint {k}: no finite fillet exists")
            continue
        kept.append(pts[k])
    kept.append(pts[-1])

    legs = [b - a for a, b in zip(kept[:-1], kept[1:])]
    lengths = [np.linalg.norm(leg) for leg in legs]
    units = [leg / length for leg, length in zip(legs, lengths)]
    turns = []   # the signed heading change at each corner
    for d_in, d_out in zip(units[:-1], units[1:]):
        cross = d_in[0] * d_out[1] - d_in[1] * d_out[0]
        turns.append(math.atan2(cross, float(np.clip(d_in @ d_out, -1.0, 1.0))))
    # each corner's tangent offset, padded with 0.0 at both ends: the offsets
    # on a leg must fit together, offsets[k] on leg k's start, offsets[k + 1]
    # on its end
    offsets = [0.0] + [rho * math.tan(abs(turn) / 2.0) for turn in turns] + [0.0]

    segments = []
    cursor = kept[0]           # where the pending line currently starts
    for k, turn in enumerate(turns):
        corner, offset, d_in, d_out = kept[k + 1], offsets[k + 1], units[k], units[k + 1]
        if (offset > lengths[k] - offsets[k] + 1e-12
                or offset > lengths[k + 1] - offsets[k + 2] + 1e-12):
            raise ValueError(
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


@dataclass(frozen=True)
class TrajectoryConfig:
    nominal_speed: float = 2.0    # commanded cruise speed
    turn_radius: float = 4.0
    max_yaw_rate: float = 1.0
    accel: float = 1.0
    decel: float = 1.0
    initial_speed: float = 0.0            # 0: start from rest
    max_lateral_accel: float = math.inf   # second turn-speed bound; inf = none

    def __post_init__(self):
        for name in ("nominal_speed", "turn_radius", "max_yaw_rate", "accel", "decel",
                     "max_lateral_accel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.initial_speed < math.inf:
            raise ValueError(f"initial_speed must be in [0, inf), got {self.initial_speed}")
        fastest = max(self.nominal_speed, self.initial_speed)
        if (self.accel + self.decel) * fastest * fastest == math.inf:   # the profile's largest sum
            raise ValueError(f"a speed of {fastest} m/s overflows float64 in the speed profile")

    def turn_speed(self, radius: float) -> float:
        """Command speed on an arc of this radius: nominal capped by the
        yaw-rate and lateral-acceleration bounds (an infinite one never caps)."""
        return min(self.nominal_speed, radius * self.max_yaw_rate,
                   math.sqrt(self.max_lateral_accel * radius))


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
                    raise ValueError("profile stalls: zero speed with zero acceleration")
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

    def sample(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(arc length, speed, tangential acceleration) at each time of a 1-D
        array."""
        t = _clip_to_range(t, self.duration, "time")
        i = np.clip(np.searchsorted(self.t_pts, t, "right") - 1, 0, len(self.a_vals) - 1)
        tau = t - self.t_pts[i]
        v0, a = self.v_pts[i], self.a_vals[i]
        s = np.minimum(self.s_pts[i] + v0 * tau + 0.5 * a * tau * tau, self.total_length)
        return s, v0 + a * tau, a


def build_speed_profile(geometry: PathGeometry, config: TrajectoryConfig) -> SpeedProfile:
    """Two-pass (forward accel, backward decel) profile over the geometry.

    Each segment carries a command speed: nominal on lines, the yaw-rate
    limited turn speed on arcs.  Ramps are placed so arc entry speed already
    satisfies the arc command; if the initial speed cannot be slowed in time
    for the first constraining arc, a ValueError suggests a smaller nominal
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

    # backward pass: fastest admissible entry speed per boundary
    back = np.empty(n + 1)
    back[n] = math.inf
    for i in range(n - 1, -1, -1):
        length = bounds[i + 1] - bounds[i]
        # back[n] is inf, and so is the root of inf**2 + x
        back[i] = min(commands[i], math.sqrt(back[i + 1] ** 2 + 2 * config.decel * length))
    if config.initial_speed > back[0] + 1e-9:
        raise ValueError(
            f"initial speed {config.initial_speed} cannot decelerate to the first turn "
            f"command within {bounds[1]:.3f} m; reduce the nominal or initial speed"
        )

    s_pts = [0.0]
    v_pts = [min(config.initial_speed, back[0])]
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
    """The reference at n times: row k of every field is the k-th time's."""

    position: np.ndarray       # (n, 3) ground frame, z from the surface
    velocity: np.ndarray       # (n, 3)
    acceleration: np.ndarray   # (n, 3)
    segment_index: np.ndarray  # (n,) int
    phase: np.ndarray          # (n,) str: ACC | DEC | CV


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
        surface.check_speed(float(profile.v_pts.max()))
        self.geometry = geometry
        self.profile = profile
        self.surface = surface

    @property
    def duration(self) -> float:
        return self.profile.duration

    def sample(self, t: np.ndarray) -> DesiredSample:
        """The reference at each time of a 1-D array."""
        if np.ndim(t) != 1:
            raise ValueError("times must be a 1-D array")
        s, v, v_dot = self.profile.sample(t)
        idx, local = self.geometry.locate(s)
        p = np.empty((len(s), 2))
        tangent = np.empty((len(s), 2))
        kappa = np.empty(len(s))
        for k in np.unique(idx):
            seg = self.geometry.segments[k]
            rows = idx == k
            p[rows] = seg.point_at(local[rows])
            tangent[rows] = seg.tangent_at(local[rows])
            kappa[rows] = seg.curvature

        x_dot, y_dot = v * tangent.T
        # planar acceleration: tangential ramp plus centripetal on arcs
        normal = np.stack([-tangent[:, 1], tangent[:, 0]])  # left of travel
        x_ddot, y_ddot = v_dot * tangent.T + v * v * kappa * normal

        jet = self.surface.eval(p[:, 0], p[:, 1])
        z_dot, z_ddot = surface_lift(jet, x_dot, y_dot, x_ddot, y_ddot)

        return DesiredSample(
            position=np.column_stack([p[:, 0], p[:, 1], jet[0]]),
            velocity=np.column_stack([x_dot, y_dot, z_dot]),
            acceleration=np.column_stack([x_ddot, y_ddot, z_ddot]),
            segment_index=idx,
            phase=np.where(v_dot > 1e-12, "ACC", np.where(v_dot < -1e-12, "DEC", "CV")),
        )


TRAJECTORY_COLUMNS = "t_s,xd_m,yd_m,zd_m,vxd,vyd,vzd,axd,ayd,azd,segment_id,phase"

# Times per DesiredTrajectory.sample call when a long time grid is sampled in
# blocks: the batch temporaries take about 0.5 KB per time, so a block holds
# about 1.5 MB however small the time step.
SAMPLE_BLOCK = 3072


def write_trajectory_csv(traj: DesiredTrajectory, dt: float, path: str) -> None:
    n_rows = int(math.floor(traj.duration / dt + 1e-9)) + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAJECTORY_COLUMNS + "\n")
        for k0 in range(0, n_rows, SAMPLE_BLOCK):
            t = np.minimum(np.arange(k0, min(k0 + SAMPLE_BLOCK, n_rows)) * dt,
                           traj.duration)
            s = traj.sample(t)
            table = np.column_stack([t, s.position, s.velocity, s.acceleration])
            fh.write("".join(
                ",".join(map(repr, vals)) + f",{seg},{phase}\n"
                for vals, seg, phase in zip(table.tolist(), s.segment_index.tolist(),
                                            s.phase.tolist())))
