#!/usr/bin/env python3
"""Benchmark runner for offroad-planner.

    python3 perfbench/run.py --workload route-batch --seed 1 --seconds 40 --trace 0

Runs one workload as a closed loop in this process: one operation at a time,
each a call of `offroad.cli.main` on seeded input files.  It checks every
output, prints a human-readable report, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps the program's layers in spans and
reports the per-layer metrics.  `--workload all` runs every workload, each in
its own process.  See perfbench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.reference import HostSampler  # noqa: E402
from perfbench.spans import Tracer, patch_offroad  # noqa: E402
from perfbench.workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPS = 5
WORKLOAD_NAMES = ("route-batch", "track-case-study", "plan-and-track")
E2E_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import offroad.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "offroad" / "cli.py").is_file():
        fail(f"no program source at {SRC / 'offroad'}")
    sys.path.insert(0, str(SRC))
    import offroad.cli

    if Path(offroad.cli.__file__).resolve().parent != (SRC / "offroad").resolve():
        fail(f"offroad imported from {offroad.cli.__file__}, not from {SRC}")
    return offroad.cli


def measure_setup(reps: int = SETUP_REPS) -> list[float]:
    """Wall time for a fresh interpreter to import offroad.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import offroad.cli"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class ClosedLoop:
    """Runs whole cycles of a workload's queries, one op at a time."""

    def __init__(self, workload, cli_main, out_dir: Path):
        self.workload = workload
        self.cli_main = cli_main
        self.out_dir = out_dir
        self.tracer = None
        self.sample_host = False   # run the host snippet during each call
        self.ops = []
        self.op = None             # the op being run

    def call(self, argv):
        buf = io.StringIO()
        span = self.tracer.begin("cli.main") if self.tracer else None
        sampler = HostSampler() if self.sample_host else contextlib.nullcontext()
        with sampler:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    rc = self.cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is exit 1 to a CLI user
                buf.write(f"\nuncaught {type(exc).__name__}: {exc}\n")
                rc = 1
            seconds = time.perf_counter() - t0
        if span is not None:
            self.tracer.end(span)
        if self.sample_host:
            seconds -= sampler.inside_s
            self.op.snippet_s[argv[0]] = sampler.mean_s
        return rc, seconds, buf.getvalue()

    def run_op(self, query, cycle: int):
        op = Op(query, getattr(query, "name", "case-study"), cycle, index=len(self.ops))
        op_dir = self.out_dir / f"op{op.index}"
        op_dir.mkdir(parents=True)
        self.op = op
        if self.tracer:
            self.tracer.op = op.index
            root = self.tracer.begin("op")
        self.workload.run_op(query, self.call, str(op_dir), op)
        if self.tracer:
            self.tracer.end(root)
        self.ops.append(op)
        return op

    def run_cycle(self, cycle: int):
        return [self.run_op(q, cycle) for q in self.workload.queries]

    def run_cycles(self, seconds: float, min_cycles: int):
        """Whole cycles until `seconds` have passed and at least `min_cycles`
        ran; returns the ops."""
        ops = []
        t_end = time.perf_counter() + seconds
        cycle = 0
        while cycle < min_cycles or time.perf_counter() < t_end:
            ops += self.run_cycle(cycle)
            cycle += 1
        return ops

    def run_traced(self, seconds: float, min_cycles: int):
        """Untraced and traced cycles in the order U T T U U T T U ..., so
        both see the same machine and a steady drift cancels; returns
        (untraced ops, traced ops, tracer)."""
        tracer = Tracer()
        plain, traced = [], []
        t_end = time.perf_counter() + seconds
        cycle = 0
        while cycle < 2 * min_cycles or time.perf_counter() < t_end:
            if cycle % 4 in (0, 3):
                plain += self.run_cycle(cycle)
            else:
                patch_offroad(tracer)
                self.tracer = tracer
                try:
                    traced += self.run_cycle(cycle)
                finally:
                    tracer.unpatch()
                    self.tracer = None
            cycle += 1
        return plain, traced, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_ops(workload, ops):
    workload.prepare_checks()
    failures = []
    wrong = False
    for op in ops:
        op.verdict = workload.check(op.query, op)
        if not op.verdict.ok:
            failures.append({"op": op.index, "query": op.name, "reason": op.verdict.reason})
        wrong |= op.verdict.wrong_output
    return failures, wrong


def run(args) -> dict:
    cli = import_program()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    report = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
              f"trace {args.trace}, closed loop with 1 client"]

    setup = measure_setup()
    workload = WORKLOADS[args.workload](args.seed, str(work / "inputs"))
    loop = ClosedLoop(workload, cli.main, work / "outputs")
    loop.sample_host = args.trace == 0
    loop.run_op(workload.queries[0], cycle=-1)  # warm-up, not counted

    problems = []
    if args.trace == 0:
        ops = loop.run_cycles(args.seconds, min_cycles=2)
        rss = peak_rss_mb()
        failures, wrong = check_ops(workload, ops)
        metrics, lines = workload.end_to_end(ops)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = rss
        report += lines
        report.append(f"setup_s {metrics['setup_s']:.6f} s (median of {len(setup)} "
                      "fresh interpreters importing offroad.cli)")
        report.append(f"peak_rss_mb {rss:.1f} MB (this process)")
        units = E2E_UNITS
    else:
        plain, traced, tracer = loop.run_traced(args.seconds, min_cycles=2)
        tracer.write(str(work / "spans.csv.gz"))
        ops = plain + traced
        failures, wrong = check_ops(workload, ops)
        metrics, lines, problems = layers.per_layer(tracer, plain, traced)
        report += lines
        units = layers.UNITS

    n_failed = sum(1 for op in ops if not op.verdict.ok)
    by_reason = {}
    for f in failures:
        by_reason.setdefault(f["reason"], []).append(f["query"])
    report.append(f"fail_frac {n_failed / len(ops):.4f} ({n_failed} failed of "
                  f"{len(ops)} ops attempted)")
    for reason, queries in sorted(by_reason.items()):
        report.append(f"  failed x{len(queries)} [{', '.join(sorted(set(queries)))}]: {reason}")
    if wrong:
        problems.append("a call exited 0 with a wrong result")
    for p in problems:
        report.append(f"INCORRECT: {p}")

    with open(work / "failures.json", "w", encoding="utf-8") as fh:
        json.dump({"failures": failures, "problems": problems}, fh, indent=1)
    shutil.rmtree(work / "inputs")
    shutil.rmtree(work / "outputs")
    print("\n".join(report))
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"{name} exited {proc.returncode}")
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
