#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --first-seed 61 --out BENCH_5.json

Extracts the committed files of the base commit into a temporary directory
(`git archive`, so the repository's `.git` gains no worktree entry), then,
for each workload BENCHMARK.json lists and each of N seeds, runs
`perfbench/run.py --trace 0` once in the base tree and once in the working
tree.  Pair i runs the base first when i is even and the working tree first
when i is odd, so a steady drift of the host's speed cancels.  Every run uses
the same seed, BENCHMARK.json's `run_seconds` and interpreter on both sides.

The output JSON holds every run's metrics and, per workload and end-to-end
metric (names and better-directions from BENCHMARK.json), each side's
median, quartiles and IQR, the per-pair ratios change/base, and how many
pairs the working tree won.  Each run also keeps the unscaled call times of
its report (`route_s`, `simulate_s`, `render_s`, `sim_steps_per_s`) and the
host snippet's median from its `work_per_s` line (`snippet_ms`), and the
summary gives each side's median of them under `raw`: `work_per_s` is scaled
by that snippet, so a change in the snippet's own time moves it too.  `raw`
also holds each run's CPU seconds (`child_cpu_s`, user plus system) and minor
page faults (`child_minflt`), the `RUSAGE_CHILDREN` deltas across the run, so
a snippet-scaled shift in `work_per_s` can be told from a change in the
program's own cost.  Both counts cover the whole run: its 5 set-up
interpreters that import `offroad.cli` for `setup_s` are included.  A run
lasts `run_seconds` whatever its speed, so compare them per op, divided by
the run's `attempted`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_LINE = re.compile(r"(route_s|simulate_s|render_s|sim_steps_per_s) (\S+) ")
SNIPPET = re.compile(r"^work_per_s .*the snippet took median (\S+) ms")
# `python -c` code that runs the program of one tree, its src/ first on the
# path: `python -c RUNNER <src> <offroad argv...>`
RUNNER = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
          "from offroad.cli import main; sys.exit(main())")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def header(base: str) -> dict:
    """The opening entries of a comparison's report: the base commit, the
    working tree it is compared with, and the host."""
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "base": git("rev-parse", base),
        "change": f"working tree on {git('rev-parse', 'HEAD')}"
                  + (" with uncommitted changes" if dirty else ""),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
    }


def extract_commit(rev: str, dest: Path) -> None:
    """The committed files of `rev`, written under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`; its final JSON line plus wall
    time, CPU time and minor page faults."""
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=30 * seconds + 600)
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = {m[1]: float(m[2]) for m in map(RAW_LINE.match, lines) if m}
    raw.update(("snippet_ms", float(m[1])) for m in map(SNIPPET.match, lines) if m)
    raw["child_cpu_s"] = (usage.ru_utime + usage.ru_stime
                          - usage0.ru_utime - usage0.ru_stime)
    raw["child_minflt"] = usage.ru_minflt - usage0.ru_minflt
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": raw,
        "wall_s": wall_s,
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        ratios = [c / b for b, c in zip(base, change)]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": quartiles(base),
            "change": quartiles(change),
            "ratio_change_over_base": quartiles(ratios),
            "change_better_pairs": wins,
            "pairs": len(pairs),
        }
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("base", "change")}
    attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in ("base", "change")}
    out["failed_ops"] = {side: f"{failed[side]}/{attempted[side]}" for side in failed}
    out["all_correct"] = all(p[side]["correct"] for p in pairs for side in ("base", "change"))
    raw_names = set.intersection(*(set(p[side]["raw"]) for p in pairs
                                   for side in ("base", "change")))
    out["raw"] = {name: {side: statistics.median(p[side]["raw"][name] for p in pairs)
                         for side in ("base", "change")} for name in sorted(raw_names)}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    report = {
        **header(args.base),
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        extract_commit(report["base"], base_tree)
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    pair[side] = run_bench(tree, workload, seed, seconds)
                pairs.append(pair)
                b, c = (pair[s]["metrics"]["work_per_s"] for s in ("base", "change"))
                raw = "".join(f", {k} {pair['base']['raw'][k]:.4g} -> {v:.4g}"
                              for k, v in pair["change"]["raw"].items()
                              if k in pair["base"]["raw"])
                print(f"{workload} seed {seed} ({order[0]} first): work_per_s "
                      f"{b:.4g} -> {c:.4g} (x{c / b:.3f}){raw}", flush=True)
            report["workloads"][workload] = {
                "summary": summarize(pairs, spec["end_to_end"]), "runs": pairs}

    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
