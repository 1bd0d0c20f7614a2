"""Per-layer metrics from the spans of a traced run.

Times are self times: a span's duration minus the part its child spans cover.
`*_s` metrics are the median over ops of the op's total self time in that
layer; `*_us` metrics are mean self time per call.  Counts (`*_per_step`,
`sweeps`, `segments`, `steps`, `svg_bytes` and the two fractions) are taken
per traced cycle of the workload's queries and must repeat exactly from one
cycle to the next.  A layer that does not run in a workload reports 0.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

UNITS = {
    "terrain.load_s": "s",
    "terrain.load_cells_per_s": "1/s",
    "terrain.mask_s": "s",
    "terrain.spline_build_s": "s",
    "terrain.eval_us": "us",
    "terrain.eval_per_step": "count",
    "global_route.tables_s": "s",
    "global_route.solve_s": "s",
    "global_route.sweeps": "count",
    "global_route.converged_frac": "frac",
    "global_route.extract_s": "s",
    "global_route.write_s": "s",
    "local_path.geometry_s": "s",
    "local_path.profile_s": "s",
    "local_path.segments": "count",
    "local_path.sample_us": "us",
    "local_path.sample_per_step": "count",
    "local_path.write_s": "s",
    "vehicle.frame_motion_us": "us",
    "vehicle.frame_motion_per_step": "count",
    "control.step_us": "us",
    "control.clamped_frac": "frac",
    "simulate.loop_self_us_per_step": "us",
    "simulate.write_s": "s",
    "simulate.steps": "count",
    "render.scene_s": "s",
    "render.svg_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}

# metric -> span whose per-op self time is summed, then the median taken
MEDIAN_SELF = {
    "terrain.load_s": "terrain.load",
    "terrain.mask_s": "terrain.mask",
    "terrain.spline_build_s": "terrain.spline_build",
    "global_route.tables_s": "global_route.tables",
    "global_route.solve_s": "global_route.solve",
    "global_route.extract_s": "global_route.extract",
    "global_route.write_s": "global_route.write",
    "local_path.geometry_s": "local_path.geometry",
    "local_path.profile_s": "local_path.profile",
    "local_path.write_s": "local_path.write",
    "simulate.write_s": "simulate.write",
    "render.scene_s": "render.scene",
    "cli.self_s": "cli.main",
}

# metric -> span whose mean self time per call is reported in microseconds
PER_CALL_US = {
    "terrain.eval_us": "terrain.eval",
    "local_path.sample_us": "local_path.sample",
    "vehicle.frame_motion_us": "vehicle.frame_motion",
    "control.step_us": "control.step",
}

# exact count -> (numerator, denominator); a name with a dot is a span's
# call count, anything else a counter recorded by the tracer or the op
EXACT = {
    "terrain.eval_per_step": ("terrain.eval", "steps"),
    "local_path.sample_per_step": ("local_path.sample", "steps"),
    "vehicle.frame_motion_per_step": ("vehicle.frame_motion", "steps"),
    "global_route.sweeps": ("sweeps", "global_route.solve"),
    "global_route.converged_frac": ("converged", "global_route.solve"),
    "local_path.segments": ("segments", "local_path.geometry"),
    "control.clamped_frac": ("clamped", "control.step"),
    "simulate.steps": ("steps", "simulate.loop"),
    "render.svg_bytes": ("svg_bytes", "render.scene"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, plain, traced):
    """(metrics, report lines, problems) for one traced run."""
    spans = tracer.per_op()
    totals = defaultdict(lambda: [0, 0.0])   # span name -> [calls, self_s]
    for op in traced:
        for name, (calls, _, self_s) in spans[op.index].items():
            totals[name][0] += calls
            totals[name][1] += self_s

    metrics = {}
    for metric, span in MEDIAN_SELF.items():
        metrics[metric] = statistics.median(
            spans[op.index][span][2] if span in spans[op.index] else 0.0 for op in traced)
    for metric, span in PER_CALL_US.items():
        calls, self_s = totals[span]
        metrics[metric] = 1e6 * _ratio(self_s, calls)
    cells = sum(tracer.counts[(op.index, "cells")] for op in traced)
    metrics["terrain.load_cells_per_s"] = _ratio(cells, totals["terrain.load"][1])
    steps = sum(tracer.counts[(op.index, "steps")] for op in traced)
    metrics["simulate.loop_self_us_per_step"] = 1e6 * _ratio(totals["simulate.loop"][1], steps)

    def amount(op, key):
        if "." in key:
            row = spans[op.index].get(key)
            return row[0] if row else 0
        if key == "svg_bytes":
            svg = op.files.get("svg")
            return os.path.getsize(svg) if svg and os.path.exists(svg) else 0
        return tracer.counts[(op.index, key)]

    by_cycle = defaultdict(list)
    for op in traced:
        by_cycle[op.cycle].append(op)
    exact_per_cycle = []
    for cycle in sorted(by_cycle):
        ops = by_cycle[cycle]
        exact_per_cycle.append({
            metric: _ratio(sum(amount(op, num) for op in ops), sum(amount(op, den) for op in ops))
            for metric, (num, den) in EXACT.items()})
    metrics.update(exact_per_cycle[0])
    problems = [f"{metric} differs between traced cycles: "
                f"{[c[metric] for c in exact_per_cycle]}"
                for metric in EXACT if len({c[metric] for c in exact_per_cycle}) > 1]

    # overhead: per query, median traced op time minus median untraced op time
    def medians(ops):
        by_query = defaultdict(list)
        for op in ops:
            by_query[op.name].append(op.seconds)
        return {q: statistics.median(v) for q, v in by_query.items()}

    base, with_spans = medians(plain), medians(traced)
    metrics["trace.overhead_s"] = statistics.mean(with_spans[q] - base[q] for q in base)
    metrics["trace.overhead_frac"] = sum(with_spans.values()) / sum(base.values()) - 1.0

    lines = [f"{name} {metrics[name]:.6g} {UNITS[name]}" for name in UNITS]
    lines.append(f"(traced: {len(traced)} ops in {len(by_cycle)} cycles, "
                 f"{len(tracer.names)} spans; untraced: {len(plain)} ops)")
    return metrics, lines, problems
