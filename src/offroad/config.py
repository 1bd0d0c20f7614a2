"""Run configuration: an INI-style document with one section per subsystem.

Unknown sections or keys are rejected, referenced files must exist, and the
physical parameters are validated on load.  Limits accepting "none" mean the
corresponding actuator bound is removed (the idealized unconstrained case).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .control import GainConfig
from .local_path import TrajectoryConfig
from .terrain import DRY_SLOPE_LIMIT, WET_SLOPE_LIMIT, WeatherCondition
from .vehicle import VehicleParams


class ConfigError(ValueError):
    """Raised for unknown keys, missing files, or invalid parameter values."""


_SCHEMA: dict[str, set[str]] = {
    "terrain": {"grid", "water_mask", "foliage_mask"},
    "weather": {"kind", "slope_limit", "dry_slope_limit", "wet_slope_limit",
                "steep_limit"},
    "route": {"start", "goal"},
    "path": {"waypoints", "turn_radius", "nominal_speed", "max_yaw_rate",
             "accel", "decel", "initial_speed", "max_lateral_accel"},
    "vehicle": {"wheelbase", "mass", "gravity", "max_steer", "max_steer_rate",
                "max_accel", "min_ctrl_speed"},
    "controller": {"k1", "k2"},
    "simulation": {"dt", "duration", "fn_policy"},
    "output": {"out_dir"},
}


@dataclass
class RunConfig:
    grid_path: str
    water_mask_path: str | None
    foliage_mask_path: str | None
    weather: WeatherCondition
    steep_limit: float
    start: tuple[int, int] | None
    goal: tuple[int, int] | None
    waypoints: list[tuple[float, float]] | None
    trajectory: TrajectoryConfig
    vehicle: VehicleParams
    gains: GainConfig
    dt: float
    duration: float | None
    fn_policy: str
    out_dir: str = "."


def _float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from exc


def _positive(section: str, key: str, raw: str) -> float:
    v = _float(section, key, raw)
    if not (v > 0 and math.isfinite(v)):
        raise ConfigError(f"{section}.{key}: must be positive and finite, got {raw}")
    return v


def _optional_limit(section: str, key: str, raw: str | None) -> float | None:
    if raw is None or raw.strip().lower() in ("none", "inf", "unlimited"):
        return None
    return _positive(section, key, raw)


def _node(section: str, key: str, raw: str) -> tuple[int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{section}.{key}: expected 'row,col', got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected integers, got {raw!r}") from exc


def _waypoints(raw: str) -> list[tuple[float, float]]:
    points = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"path.waypoints: expected 'x,y' pairs, got {chunk!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"path.waypoints: expected numbers, got {chunk!r}") from exc
    if len(points) < 2:
        raise ConfigError("path.waypoints: need at least two points")
    return points


def load_run_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    def get(section: str, key: str, default: str | None = None) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    if not parser.has_option("terrain", "grid"):
        raise ConfigError("terrain.grid is required")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str | None) -> str | None:
        if p is None:
            return None
        full = p if os.path.isabs(p) else os.path.join(base, p)
        if not os.path.exists(full):
            raise ConfigError(f"referenced file does not exist: {p}")
        return full

    grid_path = resolve(get("terrain", "grid"))
    water = resolve(get("terrain", "water_mask"))
    foliage = resolve(get("terrain", "foliage_mask"))

    kind = (get("weather", "kind", "dry") or "dry").strip().lower()
    if kind not in ("dry", "wet"):
        raise ConfigError(f"weather.kind: must be dry or wet, got {kind!r}")
    dry_limit = _positive("weather", "dry_slope_limit",
                          get("weather", "dry_slope_limit", repr(DRY_SLOPE_LIMIT)))
    wet_limit = _positive("weather", "wet_slope_limit",
                          get("weather", "wet_slope_limit", repr(WET_SLOPE_LIMIT)))
    override = get("weather", "slope_limit")
    if override is not None:
        limit = _positive("weather", "slope_limit", override)
    else:
        limit = dry_limit if kind == "dry" else wet_limit
    weather = WeatherCondition(kind, limit)
    steep_raw = get("weather", "steep_limit")
    steep_limit = _positive("weather", "steep_limit", steep_raw) if steep_raw else limit

    start = goal = None
    if parser.has_section("route"):
        if parser.has_option("route", "start"):
            start = _node("route", "start", parser.get("route", "start"))
        if parser.has_option("route", "goal"):
            goal = _node("route", "goal", parser.get("route", "goal"))

    waypoints = None
    if parser.has_option("path", "waypoints"):
        waypoints = _waypoints(parser.get("path", "waypoints"))

    initial_speed_raw = get("path", "initial_speed")
    initial_speed = None
    if initial_speed_raw is not None:
        initial_speed = _float("path", "initial_speed", initial_speed_raw)
        if not 0.0 <= initial_speed < math.inf:
            raise ConfigError(f"path.initial_speed: must be finite and non-negative, "
                              f"got {initial_speed_raw}")
    lat_raw = get("path", "max_lateral_accel")
    trajectory = TrajectoryConfig(
        nominal_speed=_positive("path", "nominal_speed",
                                get("path", "nominal_speed", "2.0")),
        turn_radius=_positive("path", "turn_radius", get("path", "turn_radius", "4.0")),
        max_yaw_rate=_positive("path", "max_yaw_rate", get("path", "max_yaw_rate", "1.0")),
        accel=_positive("path", "accel", get("path", "accel", "1.0")),
        decel=_positive("path", "decel", get("path", "decel", "1.0")),
        initial_speed=initial_speed,
        max_lateral_accel=(None if lat_raw is None
                           else _positive("path", "max_lateral_accel", lat_raw)),
    )

    vehicle = VehicleParams(
        wheelbase=_positive("vehicle", "wheelbase", get("vehicle", "wheelbase", "2.0")),
        mass=_positive("vehicle", "mass", get("vehicle", "mass", "1000.0")),
        gravity=_positive("vehicle", "gravity", get("vehicle", "gravity", "9.81")),
        max_steer=_optional_limit("vehicle", "max_steer",
                                  get("vehicle", "max_steer", "0.6")),
        max_steer_rate=_optional_limit("vehicle", "max_steer_rate",
                                       get("vehicle", "max_steer_rate", "2.0")),
        max_accel=_optional_limit("vehicle", "max_accel", get("vehicle", "max_accel")),
        min_ctrl_speed=_positive("vehicle", "min_ctrl_speed",
                                 get("vehicle", "min_ctrl_speed", "0.05")),
    )

    gains = GainConfig(
        k1=_positive("controller", "k1", get("controller", "k1", "10.0")),
        k2=_positive("controller", "k2", get("controller", "k2", "20.0")),
    )

    dt = _positive("simulation", "dt", get("simulation", "dt", "0.01"))
    duration_raw = get("simulation", "duration")
    duration = None if duration_raw is None else _positive(
        "simulation", "duration", duration_raw)
    fn_policy = (get("simulation", "fn_policy", "halt") or "halt").strip().lower()
    if fn_policy not in ("halt", "warn"):
        raise ConfigError(f"simulation.fn_policy: must be halt or warn, got {fn_policy!r}")

    out_dir = get("output", "out_dir", ".") or "."
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base, out_dir)

    return RunConfig(
        grid_path=grid_path, water_mask_path=water, foliage_mask_path=foliage,
        weather=weather, steep_limit=steep_limit, start=start, goal=goal,
        waypoints=waypoints, trajectory=trajectory, vehicle=vehicle, gains=gains,
        dt=dt, duration=duration, fn_policy=fn_policy, out_dir=out_dir,
    )
