#!/usr/bin/env python3
"""Cold `offroad route` and `offroad simulate` across grid sizes, a base
commit against the working tree.

    python3 tools/route_scaling.py --base HEAD --out BENCH_13_route_scaling.json

For each size (200, 400, 800 and 1600 nodes a side by default) it writes one
seeded grid, `RELIEF_M * perfbench.inputs.fractal_field` on 5 m cells, and
asks for a dry route between the free nodes nearest the northwest and
southeast corners (free: not steep under the dry limit, by perfbench's
oracle).  It also writes a simulate config of plan-and-track's shape on the
same grid: its `PLAN_CFG` without the mask files, a start near the centre
and a goal `PLAN_OFFSET` (8 rows north, 16 columns east) from it.  Per size
and side it runs, `--reps` times each:

- `offroad route` in a fresh interpreter, timed from its start to its exit,
  with that process's peak RSS (`os.wait4`);
- the same query in a fresh interpreter whose layers are traced by
  perfbench's span tracer (`perfbench/spans.py`): load, mask, tables
  (`build_dp_problem`, plus the once-per-query `route_weights` in a tree
  that has it), graph (`_hop_graph`), Dijkstra, policy (`value_iteration`),
  extract and write, each timed by its self time, the rule of perfbench's
  `*_s` metrics: policy is `value_iteration` less its graph and Dijkstra;
- `offroad simulate` on the config, timed and measured as the cold route.

The base side is the committed files of `--base`, extracted as
`bench_pairs.py` does.  Up to `--jobs` processes run at once; the jobs share
the host's cores, so compare sides, not absolute times.  The output JSON
holds every run and, per size and side, the median cold wall time, the
largest peak RSS and the median time of each layer, and the same wall time,
peak RSS and exit codes for the cold simulate runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

from bench_pairs import ROOT, RUNNER, extract_commit, header

sys.path.insert(0, str(ROOT))
from perfbench.spans import Tracer  # noqa: E402

TOOLS = Path(__file__).resolve().parent
SIZES = (200, 400, 800, 1600)
LAYERS = ("load", "mask", "tables", "graph", "dijkstra", "policy", "extract", "write")


def write_site(size: int, seed: int, directory: str) -> None:
    """Write the seeded grid of `size` nodes a side and its simulate
    config; print the route argv, without --out, and the simulate argv,
    without --out-dir, as JSON.  It runs in a child (`site_argv`): Linux
    carries a process's peak RSS over into the children it starts, so this
    process must not grow by building a grid."""
    import numpy as np

    from perfbench.inputs import (CELL_M, PLAN_CFG, PLAN_OFFSET, RELIEF_M, _clear_node,
                                  fractal_field, write_raster)
    from perfbench.oracle import DRY_LIMIT, hop_slopes, steep_nodes

    rng = np.random.default_rng(seed)
    heights = RELIEF_M * fractal_field(rng, size)
    path = Path(directory) / f"grid{size}.csv"
    write_raster(str(path), heights, CELL_M, (0.0, 0.0))
    steep = steep_nodes(hop_slopes(heights, CELL_M), DRY_LIMIT)
    free = np.argwhere(~steep)
    corner = free.sum(axis=1)
    start, goal = free[corner.argmin()], free[corner.argmax()]
    route = ["route", "--grid", str(path), "--start", f"{start[0]},{start[1]}",
             "--goal", f"{goal[0]},{goal[1]}", "--weather", "dry"]
    mid = size // 2
    start = _clear_node(rng, steep, (mid - 3, mid + 3), (mid - 3, mid + 3))
    aim = (start[0] + PLAN_OFFSET[0], start[1] + PLAN_OFFSET[1])
    goal = _clear_node(rng, steep, (aim[0] - 2, aim[0] + 3), (aim[1] - 2, aim[1] + 3))
    text = PLAN_CFG.format(stem=path.stem, start=f"{start[0]},{start[1]}",
                           goal=f"{goal[0]},{goal[1]}")
    config = path.with_suffix(".cfg")
    config.write_text("".join(line for line in text.splitlines(keepends=True)
                              if not line.startswith(("water_mask", "foliage_mask"))))
    print(json.dumps({"route": route, "simulate": ["simulate", "--config", str(config)]}))


def tool_code(call: str) -> str:
    """`python -c` code that imports this tool and runs `call`."""
    return f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import route_scaling; {call}"


def site_argv(size: int, seed: int, directory: Path) -> dict[str, list[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", tool_code(f"route_scaling.write_site({size}, {seed}, "
                                         f"{str(directory)!r})")],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def timed_route(src: str, argv: list[str]) -> None:
    """Run `offroad route` from the package under `src` with its layers
    traced; print the exit code and each layer's self seconds as JSON."""
    sys.path.insert(0, src)
    from offroad import cli
    from offroad import global_route as gr

    tracer = Tracer()
    for owner, attr, layer in (
            (cli, "load_elevation_grid", "load"), (cli, "build_obstacle_mask", "mask"),
            (gr, "build_dp_problem", "tables"), (gr, "_hop_graph", "graph"),
            (gr, "dijkstra", "dijkstra"), (gr, "value_iteration", "policy"),
            (gr, "extract_route", "extract"), (gr, "write_route_csv", "write")):
        tracer.patch(owner, attr, layer)
    # the whole-grid weights that each table is cropped from; a base tree
    # without them computes the same work inside build_dp_problem
    if hasattr(gr, "route_weights"):
        tracer.patch(gr, "route_weights", "tables")
    with redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    spans = tracer.per_op()[tracer.op]
    print(json.dumps({"rc": rc, "layers_s": {k: spans[k][2] for k in LAYERS}}))


def run_child(args: list[str], out: Path) -> dict:
    """One fresh interpreter; its wall time, exit code, stdout and peak RSS."""
    with open(out, "w+", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        stdout = fh.read()
    return {"wall_s": wall_s, "rc": proc.returncode, "stdout": stdout,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def cold_run(tree: Path, argv: list[str], out: Path) -> dict:
    if argv[0] == "simulate":
        argv = [*argv, "--out-dir", str(out.with_suffix(""))]
    else:
        argv = [*argv, "--out", str(out.with_suffix(".csv"))]
    return run_child(["-c", RUNNER, str(tree / "src"), *argv], out)


def layered_run(tree: Path, argv: list[str], out: Path) -> dict:
    code = tool_code(f"route_scaling.timed_route({str(tree / 'src')!r}, sys.argv[1:])")
    result = run_child(["-c", code, *argv, "--out", str(out.with_suffix(".csv"))], out)
    if result["rc"] == 0:
        result.update(json.loads(result["stdout"].splitlines()[-1]))
    return result


def summarize(runs: dict) -> dict:
    cold, layered, simulate = runs["cold"], runs["layered"], runs["simulate"]
    return {
        "cold_s": statistics.median(r["wall_s"] for r in cold),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in cold),
        "exit_codes": sorted({r["rc"] for r in cold + layered}),
        "layers_s": {layer: statistics.median(r["layers_s"][layer] for r in layered)
                     for layer in LAYERS} if all("layers_s" in r for r in layered) else None,
        "simulate": {"cold_s": statistics.median(r["wall_s"] for r in simulate),
                     "peak_rss_mb": max(r["peak_rss_mb"] for r in simulate),
                     "exit_codes": sorted({r["rc"] for r in simulate})},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--out", required=True, help="BENCH_<n>_scaling.json to write")
    args = parser.parse_args()

    report = {
        **header(args.base),
        "jobs": args.jobs,
        "seed": args.seed,
        "sizes": {},
    }
    with tempfile.TemporaryDirectory(prefix="route-scaling-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "change": ROOT}
        extract_commit(report["base"], trees["base"])
        tasks = []
        for size in args.sizes:
            argv = site_argv(size, args.seed, tmp)
            report["sizes"][size] = {"argv": argv["route"][1:],
                                     "simulate_argv": argv["simulate"][1:]}
            # base and change of one size and kind run next to each other
            for rep in range(args.reps):
                for kind, run, command in (("cold", cold_run, "route"),
                                           ("layered", layered_run, "route"),
                                           ("simulate", cold_run, "simulate")):
                    for side, tree in trees.items():
                        out = tmp / f"{size}-{side}-{kind}-{rep}.out"
                        tasks.append((size, side, kind, run, tree, argv[command], out))
        runs = {(size, side): {"cold": [], "layered": [], "simulate": []}
                for size in args.sizes for side in trees}
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [(task, pool.submit(task[3], *task[4:])) for task in tasks]
            for (size, side, kind, *_), future in futures:
                result = future.result()
                runs[size, side][kind].append(result)
                print(f"{size}^2 {side} {kind}: exit {result['rc']}, "
                      f"{result['wall_s']:.3f} s, {result['peak_rss_mb']:.1f} MB", flush=True)
        for (size, side), side_runs in runs.items():
            report["sizes"][size][side] = {"summary": summarize(side_runs), "runs": side_runs}

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
