"""The three workloads: their inputs, one operation each, the checks of its
outputs, and the end-to-end metrics over a set of operations.

A workload's `queries` form one cycle; run.py always runs whole cycles.
`run_op` calls the CLI through `call(argv) -> (exit_code, seconds, stdout)`
and keeps every output file, so checks can run after the timed section.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import dataclass, field

from . import checks, inputs
from .oracle import RouteOracle
from .reference import NOMINAL_S, scale


@dataclass
class Op:
    query: object                              # an item of Workload.queries
    name: str
    cycle: int
    index: int
    seconds: float = 0.0                       # own time of all CLI calls
    calls: dict = field(default_factory=dict)  # command -> (exit, seconds, stdout)
    files: dict = field(default_factory=dict)
    steps: int = 0                             # logged closed-loop steps
    snippet_s: dict = field(default_factory=dict)  # command -> mean host snippet time
    verdict: checks.Verdict | None = None


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled_rate(ops, command, work):
    """(work per scaled second, report text).  Each call's own time is
    scaled to the nominal host speed by the host snippets run during it
    (reference.scale); per query the median over its calls of `command` is
    taken, and the rate is the summed work of one call of each query over
    the sum of those medians.

    On a shared host the same call's wall time drifts with the host's load
    for tens of seconds at a time, which moves a plain median by up to 2x
    between runs, while the snippets run inside each call drift with it.
    """
    by_query = {}
    for op in ops:
        if command in op.calls:
            by_query.setdefault(op.name, []).append(op)
    total = sum(work(group[0]) for group in by_query.values())
    seconds = sum(statistics.median(scale(op.calls[command][1], op.snippet_s[command])
                                    for op in group)
                  for group in by_query.values())
    snippets = [op.snippet_s[command] for op in ops if command in op.calls]
    text = (f"({total} units of work in {len(by_query)} queries / the sum of each "
            f"query's median of {len(ops) // len(by_query)} {command} calls, scaled "
            f"to a {NOMINAL_S} s host snippet; the snippet took median "
            f"{_median(snippets) * 1e3:.4f} ms in {len(snippets)} calls)")
    return total / seconds, text


def tail(values):
    """(percentile, value): the highest percentile with at least 10 samples
    above it, or (None, None) with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None, None
    k = n - 10
    return 100 * k // n, sorted(values)[k - 1]


class Workload:
    name = ""
    queries: list = []

    def run_op(self, query, call, op_dir: str, op: Op) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Expensive check set-up, run after the timed section."""

    def check(self, query, op: Op) -> checks.Verdict:
        raise NotImplementedError

    def end_to_end(self, ops):
        """({"work_per_s": value}, [report lines]).  `work_per_s` comes from
        each query's median scaled call time; the report lines also give the
        unscaled medians over every call."""
        raise NotImplementedError


class RouteBatch(Workload):
    name = "route-batch"

    def __init__(self, seed: int, directory: str):
        self.queries = inputs.route_batch(seed, directory)
        self.expected = {}

    def run_op(self, q, call, op_dir, op):
        out = os.path.join(op_dir, "route.csv")
        rc, secs, stdout = call(q.argv(out))
        op.calls["route"] = (rc, secs, stdout)
        op.files["route"] = out
        op.seconds = secs

    def prepare_checks(self):
        for q in self.queries:
            oracle = RouteOracle.from_files(q.grid, (q.water, q.foliage), q.weather)
            self.expected[q.name] = (oracle, float(oracle.costs_to_goal(q.goal)[q.start]))

    def check(self, q, op):
        oracle, cost = self.expected[q.name]
        return checks.check_route(oracle, cost, q.start, q.goal,
                                  op.calls["route"][0], op.files["route"])

    def end_to_end(self, ops):
        secs = [op.calls["route"][1] for op in ops]
        rate, text = scaled_rate(ops, "route", lambda op: 1)
        pct, tail_s = tail(secs)
        metrics = {"work_per_s": rate}
        lines = [f"route_s {_median(secs):.6f} s (median of {len(secs)} route calls)",
                 f"work_per_s {rate:.6f} 1/s {text}",
                 (f"route_tail_s {tail_s:.6f} s (p{pct} of {len(secs)} route calls)"
                  if pct is not None else
                  f"route_tail_s n/a (needs 11 route calls, got {len(secs)})")]
        return metrics, lines


class TrackCaseStudy(Workload):
    name = "track-case-study"
    STEPS = 975
    MAX_ERR_M = 0.15

    def __init__(self, seed: int, directory: str):
        self.queries = [inputs.track_case_study(seed, directory)]
        self.digest = None

    def run_op(self, cfg, call, op_dir, op):
        rc, secs, stdout = call(["simulate", "--config", cfg, "--out-dir", op_dir])
        op.calls["simulate"] = (rc, secs, stdout)
        op.files["log"] = os.path.join(op_dir, "log.csv")
        op.files["trajectory"] = os.path.join(op_dir, "trajectory.csv")
        op.steps = checks.sim_status(stdout)[1]
        op.seconds = secs

    def check(self, cfg, op):
        verdict = checks.check_simulate(op.calls["simulate"][0], op.calls["simulate"][2],
                                        op.files["log"], self.STEPS, self.MAX_ERR_M)
        if not verdict.ok:
            return verdict
        digest = hashlib.sha256()
        for key in ("log", "trajectory"):
            with open(op.files[key], "rb") as fh:
                digest.update(fh.read())
        if self.digest is None:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            return checks.Verdict("log.csv/trajectory.csv differ from the first run",
                                  wrong_output=True)
        return verdict

    def end_to_end(self, ops):
        secs = [op.calls["simulate"][1] for op in ops]
        steps = sum(op.steps for op in ops)
        rate, text = scaled_rate(ops, "simulate", lambda op: op.steps)
        metrics = {"work_per_s": rate}
        lines = [f"sim_steps_per_s {steps / sum(secs):.3f} 1/s "
                 f"({steps} steps over {len(secs)} simulate calls)",
                 f"simulate_s {_median(secs):.6f} s (median of {len(secs)} simulate calls)",
                 f"work_per_s {rate:.3f} 1/s {text}"]
        return metrics, lines


class PlanAndTrack(Workload):
    name = "plan-and-track"
    # A simulate call's fixed set-up (grid and mask loading, routing, spline
    # build, fillets, trajectory write) in logged-step equivalents.  On the
    # seed program a call took 1.07 s + 1.15 ms per logged step (least
    # squares over 60 seeded scenarios, best of two calls each); the residual
    # did not repeat between calls, so the step count is the only input
    # that moves a call's time.  Counting the set-up as steps makes each
    # call's rate independent of how long its run lasts before it stops.
    SETUP_STEPS = 900

    def __init__(self, seed: int, directory: str):
        self.queries = inputs.plan_and_track(seed, directory)

    def run_op(self, sc, call, op_dir, op):
        rc, secs, stdout = call(["simulate", "--config", sc.config, "--out-dir", op_dir])
        op.calls["simulate"] = (rc, secs, stdout)
        op.files["log"] = log = os.path.join(op_dir, "log.csv")
        op.steps = checks.sim_status(stdout)[1]
        op.seconds = secs
        if os.path.exists(log):
            op.files["svg"] = svg = os.path.join(op_dir, "scene.svg")
            rc, secs, stdout = call(["render", "--grid", sc.grid, "--log", log, "--out", svg])
            op.calls["render"] = (rc, secs, stdout)
            op.seconds += secs

    def check(self, sc, op):
        sim = op.calls["simulate"]
        verdict = checks.check_simulate(sim[0], sim[2], op.files["log"])
        if "render" not in op.calls:
            return checks.Verdict(f"{verdict.reason or 'simulate'}; no log to render")
        rendered = checks.check_render(op.calls["render"][0], op.files["svg"])
        if not rendered.ok:
            reason = rendered.reason if verdict.ok else f"{verdict.reason}; {rendered.reason}"
            return checks.Verdict(reason, verdict.wrong_output or rendered.wrong_output)
        return verdict

    def end_to_end(self, ops):
        sim = [op.calls["simulate"][1] for op in ops]
        render = [op.calls["render"][1] for op in ops if "render" in op.calls]
        steps = sum(op.steps for op in ops)
        rate, text = scaled_rate(ops, "simulate", lambda op: op.steps + self.SETUP_STEPS)
        metrics = {"work_per_s": rate}
        lines = [f"sim_steps_per_s {steps / sum(sim):.3f} 1/s "
                 f"({steps} steps over {len(sim)} simulate calls)",
                 f"render_s {_median(render):.6f} s (median of {len(render)} render calls)",
                 f"work_per_s {rate:.3f} 1/s, work = logged steps + {self.SETUP_STEPS} "
                 f"set-up steps per call {text}"]
        return metrics, lines


WORKLOADS = {w.name: w for w in (RouteBatch, TrackCaseStudy, PlanAndTrack)}
