"""In-memory span tracer that wraps the program's public functions from the
outside.

Each wrapped call records a span (name, start, end, parent, op id).  Names
are patched where their caller looks them up, so the CLI keeps running its own
code paths.  Spans stay in memory until `write` at the end of the run.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(_clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.op, key)] += amount

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def per_op(self):
        """{op: {name: [calls, inclusive_s, self_s]}} from the recorded spans."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out[self.ops[i]][self.names[i]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: index, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("idx,name,start_s,end_s,parent,op\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},{self.ops[i]}\n")


def _counter(key, measure):
    return lambda tracer, result: tracer.count(key, measure(result))


def patch_offroad(tracer: Tracer) -> None:
    """Wrap the layer entry points of the `offroad` package in spans.

    Names the CLI imported into its own module are patched there; functions
    it reaches through a module (`gr.*`, `sim.*`) are patched on that module;
    the two per-step methods are patched on their classes, so every caller
    sees them.
    """
    from offroad import cli, control, global_route, simulate
    from offroad.local_path import DesiredTrajectory
    from offroad.terrain import SurfaceModel

    cells = _counter("cells", lambda r: r.size if hasattr(r, "size") else r.n_rows * r.n_cols)
    tracer.patch(cli, "load_elevation_grid", "terrain.load", cells)
    tracer.patch(cli, "load_mask", "terrain.load", cells)
    tracer.patch(cli, "build_obstacle_mask", "terrain.mask")
    tracer.patch(cli, "SurfaceModel", "terrain.spline_build")
    tracer.patch(cli, "plan_geometry", "local_path.geometry",
                 _counter("segments", lambda g: len(g.segments)))
    tracer.patch(cli, "build_speed_profile", "local_path.profile")
    tracer.patch(cli, "write_trajectory_csv", "local_path.write")
    tracer.patch(cli, "render_scene", "render.scene")
    tracer.patch(global_route, "build_dp_problem", "global_route.tables")

    def solved(t, vf):
        t.count("sweeps", vf.sweeps)
        t.count("converged", int(vf.converged))

    tracer.patch(global_route, "value_iteration", "global_route.solve", solved)
    tracer.patch(global_route, "extract_route", "global_route.extract")
    tracer.patch(global_route, "write_route_csv", "global_route.write")
    tracer.patch(simulate, "run_simulation", "simulate.loop",
                 _counter("steps", len))
    tracer.patch(simulate, "write_log_csv", "simulate.write")
    tracer.patch(simulate, "frame_and_motion", "vehicle.frame_motion")
    tracer.patch(simulate, "control_step", "control.step",
                 _counter("clamped", lambda r: int(r[1])))
    tracer.patch(control, "frame_and_motion", "vehicle.frame_motion")
    tracer.patch(SurfaceModel, "eval", "terrain.eval")
    tracer.patch(DesiredTrajectory, "sample", "local_path.sample")
