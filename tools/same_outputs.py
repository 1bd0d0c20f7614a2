#!/usr/bin/env python3
"""Check that the working tree's program writes exactly what a base commit's does.

    python3 tools/same_outputs.py --base HEAD

Extracts the committed files of the base commit as tools/bench_pairs.py does,
then writes the benchmark's inputs once with perfbench/inputs.py: the
route-batch queries of seeds 1-2, the plan-and-track scenarios of seeds 1-3,
track-case-study, and track-case-study run 15 s past its trajectory's end.
Two variants of seed 1's `plan0` cover the routed simulate's harder paths:
in wet weather, whose route costs more than its first window holds, and
with its goal ringed by water, which no route reaches (exit 2).
In each tree, every command runs in a fresh process:
each `route`, then `render --route` of the route it wrote; each `simulate`,
then `render --grid --log` of the log it wrote.  Each job runs in its own
directory and writes there, so the two trees' outputs sit side by side.

Stdout, stderr, exit code and every written file are compared byte for byte.
The tool prints one line per differing artifact, with the byte offset and
the 1-based line of the first difference, and exits 1 on any difference;
otherwise it prints `identical` and exits 0.  It times nothing, so no
BENCH_*.json depends on it.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench_pairs import RUNNER, extract_commit  # noqa: E402
from perfbench import inputs  # noqa: E402

ROUTE_SEEDS = (1, 2)
PLAN_SEEDS = (1, 2, 3)


def route_jobs(prefix: str, queries: list[inputs.RouteQuery]) -> dict[str, list[list[str]]]:
    """{job: [argv, ...]}: each route query, then a render of its route."""
    return {f"{prefix}-{q.name}": [q.argv("route.csv"),
                                   ["render", "--grid", q.grid, "--route", "route.csv",
                                    "--out", "route.svg"]]
            for q in queries}


def simulate_job(config: str, grid: str) -> list[list[str]]:
    """A simulate run, then a render of its log."""
    return [["simulate", "--config", config, "--out-dir", "."],
            ["render", "--grid", grid, "--log", "log.csv", "--out", "scene.svg"]]


def plan_variant_jobs(directory: Path, scenario: inputs.PlanScenario) -> dict[str, list[list[str]]]:
    """The scenario in wet weather, and with its goal ringed by water."""
    name = scenario.name
    text = Path(scenario.config).read_text()
    (directory / f"{name}-wet.cfg").write_text(text.replace("kind = dry", "kind = wet"))
    r, c = (int(v) for v in text.split("\ngoal = ")[1].split("\n")[0].split(","))
    lines = (directory / f"{name}_water.csv").read_text().splitlines()
    water = np.array([row.split(",") for row in lines[4:]])
    water[r - 2:r + 3, c - 2:c + 3] = "1"
    water[r - 1:r + 2, c - 1:c + 2] = "0"
    (directory / f"{name}_walled.csv").write_text(
        "\n".join(lines[:4] + [",".join(row) for row in water]) + "\n")
    (directory / f"{name}-walled.cfg").write_text(
        text.replace(f"water_mask = {name}_water.csv", f"water_mask = {name}_walled.csv"))
    return {f"{directory.name}-{name}-wet":
                simulate_job(str(directory / f"{name}-wet.cfg"), scenario.grid),
            # it writes no log to render
            f"{directory.name}-{name}-walled":
                simulate_job(str(directory / f"{name}-walled.cfg"), scenario.grid)[:1]}


def benchmark_jobs(directory: Path) -> dict[str, list[list[str]]]:
    """Write the input set into `directory`; its jobs."""
    jobs = {}
    for seed in ROUTE_SEEDS:
        sub = directory / f"route-{seed}"
        sub.mkdir()
        jobs |= route_jobs(sub.name, inputs.route_batch(seed, str(sub)))
    for seed in PLAN_SEEDS:
        sub = directory / f"plan-{seed}"
        sub.mkdir()
        scenarios = inputs.plan_and_track(seed, str(sub))
        jobs |= {f"{sub.name}-{sc.name}": simulate_job(sc.config, sc.grid)
                 for sc in scenarios}
        if seed == PLAN_SEEDS[0]:
            jobs |= plan_variant_jobs(sub, scenarios[0])
    sub = directory / "case-study"
    sub.mkdir()
    config = Path(inputs.track_case_study(1, str(sub)))
    jobs["case-study"] = simulate_job(str(config), str(sub / "case.csv"))
    # the case study held on for 15 s past its 9.75 s trajectory: more than
    # one sample block of steps whose reference rows are all past the end
    past_end = sub / "case-past-end.cfg"
    past_end.write_text(config.read_text().replace("[simulation]\n",
                                                   "[simulation]\nduration = 25.0\n"))
    jobs["case-study-past-end"] = simulate_job(str(past_end), str(sub / "case.csv"))
    return jobs


def run_jobs(src: Path, jobs: dict[str, list[list[str]]], out: Path) -> None:
    """Run every job with the program in `src`, each command in a fresh
    process in out/<job>, and keep its stdout, stderr and exit code there as
    <i>-<command>.stdout, .stderr and .exit.  Each command ends in a few
    seconds, so one still running after 60 s (a route loop that never ends)
    raises subprocess.TimeoutExpired."""
    for name, commands in jobs.items():
        cwd = out / name
        cwd.mkdir(parents=True)
        for i, argv in enumerate(commands):
            proc = subprocess.run([sys.executable, "-c", RUNNER, str(src.resolve()), *argv],
                                  cwd=cwd, capture_output=True, timeout=60)
            stem = cwd / f"{i}-{argv[0]}"
            stem.with_suffix(".stdout").write_bytes(proc.stdout)
            stem.with_suffix(".stderr").write_bytes(proc.stderr)
            stem.with_suffix(".exit").write_text(f"{proc.returncode}\n")


def differences(base: Path, change: Path) -> list[str]:
    """One line per file that is in only one of the two trees or differs."""
    def files(top):
        return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}

    base_files, change_files = files(base), files(change)
    out = []
    for rel in sorted(base_files | change_files):
        if rel not in change_files:
            out.append(f"{rel}: only in base")
        elif rel not in base_files:
            out.append(f"{rel}: only in change")
        else:
            a, b = (base / rel).read_bytes(), (change / rel).read_bytes()
            if a == b:
                continue
            if rel.suffix == ".exit":
                out.append(f"{rel}: exit code {a.decode().strip()} -> {b.decode().strip()}")
            else:
                at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                          min(len(a), len(b)))
                line = a.count(b"\n", 0, at) + 1
                out.append(f"{rel}: differs from byte {at}, line {line}")
    return out


def compare(base_src: Path, change_src: Path, jobs: dict[str, list[list[str]]],
            work: Path) -> int:
    """Run the jobs with both programs under `work`, print the differences
    or `identical`, and return the exit status."""
    run_jobs(base_src, jobs, work / "base")
    run_jobs(change_src, jobs, work / "change")
    found = differences(work / "base", work / "change")
    print("\n".join(found) if found else "identical")
    return 1 if found else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        extract_commit(args.base, work / "tree")
        (work / "inputs").mkdir()
        jobs = benchmark_jobs(work / "inputs")
        return compare(work / "tree" / "src", ROOT / "src", jobs, work)


if __name__ == "__main__":
    sys.exit(main())
