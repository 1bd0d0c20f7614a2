"""Output checks.  Each returns a Verdict: `reason` says why the op failed
(None when it passed) and `wrong_output` marks a call that exited 0 with a
result the check rejects, which makes the whole run incorrect."""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .oracle import RouteOracle, hop_slope

COST_RTOL = 1e-9
SIM_STATUS = re.compile(r"simulation (\S+): (\d+) steps")


@dataclass(frozen=True)
class Verdict:
    reason: str | None = None
    wrong_output: bool = False

    @property
    def ok(self) -> bool:
        return self.reason is None


PASS = Verdict()


def _wrong(reason: str) -> Verdict:
    return Verdict(reason, wrong_output=True)


def read_route(path: str):
    """(total_cost, [(row, col), ...]) from a route CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    summary = dict(item.split("=", 1) for item in lines[0].lstrip("#").strip().split(","))
    nodes = [(int(p[1]), int(p[2])) for p in (ln.split(",") for ln in lines[2:])]
    return float(summary["total_cost"]), nodes


def check_route(oracle: RouteOracle, expected_cost: float, start, goal,
                exit_code, route_path: str) -> Verdict:
    """Exit 0 with an optimal, admissible route when the oracle reaches the
    start; exit 2 when it does not."""
    reachable = math.isfinite(expected_cost)
    want = 0 if reachable else 2
    if exit_code != want:
        detail = f"oracle cost {expected_cost!r}" if reachable else "oracle: unreachable"
        return Verdict(f"exit {exit_code}, expected {want} ({detail})",
                       wrong_output=exit_code == 0)
    if not reachable:
        return PASS
    try:
        total, nodes = read_route(route_path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return _wrong(f"unreadable route CSV: {exc}")
    if not nodes or nodes[0] != tuple(start) or nodes[-1] != tuple(goal):
        return _wrong("route does not run from start to goal")
    summed = 0.0
    for a, b in zip(nodes, nodes[1:]):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            return _wrong(f"hop {a}->{b} is not between 8-adjacent nodes")
        if oracle.blocked[b]:
            return _wrong(f"route enters blocked node {b}")
        if hop_slope(oracle.heights, oracle.cell, a, b) > oracle.slope_limit:
            return _wrong(f"hop {a}->{b} exceeds the slope limit")
        summed += oracle.hop_cost(a, b)
    if abs(total - expected_cost) > COST_RTOL * abs(expected_cost):
        return _wrong(f"total_cost {total!r} != oracle {expected_cost!r}")
    if abs(summed - total) > COST_RTOL * abs(total):
        return _wrong(f"hop costs sum to {summed!r}, header says {total!r}")
    return PASS


def read_log(path: str):
    """(rows, max planar error) of a simulation log CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = next(fh).strip().split(",")
        col = header.index("errE")
        errs = [float(ln.split(",")[col]) for ln in fh if ln.strip()]
    return len(errs), max(errs, default=math.nan)


def sim_status(stdout: str):
    """(status, steps) from the simulate summary line, or (None, 0)."""
    m = SIM_STATUS.search(stdout)
    return (m.group(1), int(m.group(2))) if m else (None, 0)


def check_simulate(exit_code, stdout: str, log_path: str, steps: int | None = None,
                   max_err: float | None = None) -> Verdict:
    """Exit 0 and `completed`; optionally an exact step count and an error
    bound.  A stopped simulation fails with its status and step."""
    status, reported = sim_status(stdout)
    if exit_code != 0:
        return Verdict(f"simulate exit {exit_code}: {status or 'no summary'} "
                       f"after {reported} steps")
    if status != "completed":
        return _wrong(f"exit 0 but status {status!r}")
    try:
        rows, worst = read_log(log_path)
    except (OSError, ValueError, StopIteration) as exc:
        return _wrong(f"unreadable log CSV: {exc}")
    if rows != reported:
        return _wrong(f"log has {rows} rows, summary says {reported}")
    if steps is not None and rows != steps:
        return _wrong(f"{rows} steps, expected {steps}")
    if max_err is not None and not worst <= max_err:
        return _wrong(f"max error {worst!r} m > {max_err} m")
    return PASS


def check_render(exit_code, svg_path: str) -> Verdict:
    if exit_code != 0:
        return Verdict(f"render exit {exit_code}")
    try:
        root = ET.parse(svg_path).getroot()
    except (OSError, ET.ParseError) as exc:
        return _wrong(f"SVG does not parse: {exc}")
    if not root.tag.endswith("svg"):
        return _wrong(f"root element is {root.tag!r}, not svg")
    return PASS
