"""Run configuration, and the weather inputs it shares with `offroad route`.

A run configuration is an INI-style document with one section per
subsystem.  `_SCHEMA` declares each section's keys, each with the parser
that checks its value; unknown sections or keys are rejected, and a key
left out takes the default of the dataclass it sets (`TrajectoryConfig`,
`VehicleParams`, `GainConfig`, `sim.Scenario`).  Referenced files must
exist.  An actuator limit or `path.max_lateral_accel` set to "none", "inf"
or "unlimited" is infinite: the bound is removed (the idealized
unconstrained case).

`resolve_weather` gives the slope limit and the steep-node limit for a
weather kind and its optional overrides, for the `[weather]` section and
for the route flags alike.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .control import GainConfig
from .local_path import TrajectoryConfig
from .terrain import SLOPE_LIMITS, WeatherCondition
from .vehicle import VehicleParams


@dataclass
class RunConfig:
    grid_path: str
    water_mask_path: str | None
    foliage_mask_path: str | None
    weather: WeatherCondition
    steep_limit: float
    start: tuple[int, int] | None
    goal: tuple[int, int] | None
    waypoints: list[tuple[float, float]] | None   # None: route from start to goal
    trajectory: TrajectoryConfig
    vehicle: VehicleParams
    gains: GainConfig
    simulation: dict[str, object]   # the Scenario keywords [simulation] sets
    out_dir: str


# Each parser takes the key's label ("section.key", or a flag) and its raw
# value (config text, or a number argparse parsed), and returns the checked
# value or raises ValueError naming the label.

def _text(label: str, raw: str) -> str:
    return raw


def _number(label: str, raw: str | float) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{label}: not a number: {raw!r}") from exc


def _positive(label: str, raw: str | float) -> float:
    value = _number(label, raw)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{label}: must be positive and finite, got {raw}")
    return value


def _non_negative(label: str, raw: str) -> float:
    value = _number(label, raw)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{label}: must be finite and non-negative, got {raw}")
    return value


def _limit(label: str, raw: str) -> float:
    """A bound; "none", "inf" or "unlimited" removes it (inf)."""
    if raw.lower() in ("none", "inf", "unlimited"):
        return math.inf
    return _positive(label, raw)


def _choice(*options: str):
    def parse(label: str, raw: str) -> str:
        value = raw.lower()
        if value not in options:
            raise ValueError(f"{label}: must be {' or '.join(options)}, got {value!r}")
        return value
    return parse


def parse_node(label: str, raw: str) -> tuple[int, int]:
    """A grid node from 'row,col' text."""
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError(f"{label}: expected 'row,col', got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{label}: expected integers, got {raw!r}") from exc


def _waypoints(label: str, raw: str) -> list[tuple[float, float]]:
    points = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"{label}: expected 'x,y' pairs, got {chunk!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{label}: expected numbers, got {chunk!r}") from exc
    if len(points) < 2:
        raise ValueError(f"{label}: need at least two points")
    return points


_SCHEMA = {
    # file paths, resolved against the config's directory
    "terrain": dict.fromkeys(("grid", "water_mask", "foliage_mask"), _text),
    # the limits are checked by resolve_weather
    "weather": {"kind": _choice(*SLOPE_LIMITS), "slope_limit": _text, "steep_limit": _text},
    "route": dict.fromkeys(("start", "goal"), parse_node),
    # every key but waypoints is a TrajectoryConfig field
    "path": {"waypoints": _waypoints, "initial_speed": _non_negative,
             "max_lateral_accel": _limit,
             **dict.fromkeys(("turn_radius", "nominal_speed", "max_yaw_rate", "accel",
                              "decel"), _positive)},
    "vehicle": {**dict.fromkeys(("wheelbase", "mass", "gravity", "min_ctrl_speed"), _positive),
                **dict.fromkeys(("max_steer", "max_steer_rate", "max_accel"), _limit)},
    "controller": dict.fromkeys(("k1", "k2"), _positive),
    "simulation": {"dt": _positive, "duration": _positive,
                   "fn_policy": _choice("halt", "warn")},
    "output": {"out_dir": _text},
}


def resolve_weather(labels: tuple[str, str], kind: str = "dry",
                    slope_limit: str | float | None = None,
                    steep_limit: str | float | None = None) -> tuple[WeatherCondition, float]:
    """The weather and the steep-node limit.  The overrides are raw text or
    numbers, None when not given: the slope limit defaults to the kind's,
    the steep limit to the slope limit.  ``labels`` name the two overrides
    in error messages."""
    limit = SLOPE_LIMITS[kind] if slope_limit is None else _positive(labels[0], slope_limit)
    steep = limit if steep_limit is None else _positive(labels[1], steep_limit)
    return WeatherCondition(kind, limit), steep


def load_run_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    # no interpolation: a '%' in a value is a character like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

    values = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {section}.{key}")
            values[section][key] = _SCHEMA[section][key](f"{section}.{key}", raw)

    terrain, route, path_keys = values["terrain"], values["route"], values["path"]
    if "grid" not in terrain:
        raise ValueError("terrain.grid is required")
    base = os.path.dirname(os.path.abspath(path))
    for key, name in terrain.items():
        terrain[key] = os.path.join(base, name)
        if not os.path.exists(terrain[key]):
            raise ValueError(f"referenced file does not exist: {name}")

    weather, steep_limit = resolve_weather(("weather.slope_limit", "weather.steep_limit"),
                                           **values["weather"])

    waypoints = path_keys.pop("waypoints", None)
    if waypoints is None and not ("start" in route and "goal" in route):
        raise ValueError("config needs either path.waypoints or route.start and route.goal")

    return RunConfig(
        grid_path=terrain["grid"], water_mask_path=terrain.get("water_mask"),
        foliage_mask_path=terrain.get("foliage_mask"),
        weather=weather, steep_limit=steep_limit,
        start=route.get("start"), goal=route.get("goal"), waypoints=waypoints,
        trajectory=TrajectoryConfig(**path_keys), vehicle=VehicleParams(**values["vehicle"]),
        gains=GainConfig(**values["controller"]), simulation=values["simulation"],
        out_dir=os.path.join(base, values["output"].get("out_dir", ".")),
    )
