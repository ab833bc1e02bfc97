#!/usr/bin/env python3
"""Build and run the secmem end-to-end benchmark.

Builds e2ebench/ (the bench_e2e driver plus the library from src/) into
.bench_build/ at the repository root, runs one workload -- or all six --
each in its own process, checks that every run's outputs were correct and
prints every metric named in BENCHMARK.json with its unit. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics, or with --trace 1 the per-layer metrics
of a traced run (spans land in --trace-dir).

  python3 e2ebench/run.py --workload kv_hot --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --seed 1                  # all six workloads
  python3 e2ebench/run.py --seed 1 --trace 1        # per-layer numbers

Exit status: 0 when every check passed, 1 when a correctness check
failed, 2 when the benchmark could not run (no sources, failed build,
non-optimized build, crashed driver).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no secmem sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "bench_e2e"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    binary = build_dir / "bench_e2e"
    if not binary.is_file():
        raise BenchError(f"{binary} was not built")
    return binary


def git_sha():
    """HEAD of the git checkout this benchmark sits at the top of, if any."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def source_hash():
    """sha256 over the library and benchmark sources (identifies the
    measured code where there is no git checkout)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(binary, args, workload, trace_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        cmd += ["--trace-dir", str(trace_dir)]
    if args.self_test:
        cmd.append("--self-test")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if done.returncode not in (0, 1):
        raise BenchError(f"{workload}: bench_e2e exited {done.returncode}")
    try:
        detail = json.loads(done.stdout)
    except json.JSONDecodeError:
        raise BenchError(f"{workload}: bench_e2e printed no result")
    build_type = detail["fingerprint"]["build_type"]
    if build_type not in OPTIMIZED_BUILDS:
        raise BenchError(f"refusing a {build_type!r} build: timings need "
                         f"one of {', '.join(OPTIMIZED_BUILDS)}")
    return detail


def select_metrics(spec, detail, traced):
    """The BENCHMARK.json metrics of this run, with units; a missing or
    non-finite metric is a failed check."""
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    source = detail["layers"] if traced else detail["e2e"]
    metrics, missing = {}, []
    for entry in entries:
        value = source.get(entry["name"])
        if not isinstance(value, (int, float)) or value != value:
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics, missing


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names,
                   help="one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measured seconds per run "
                        f"(default {spec['run_seconds']}, 1 with --quick)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, report the per-layer metrics")
    p.add_argument("--trace-dir", type=Path, default=None,
                   help="where traced runs write spans "
                        "(default: <build-dir>/traces)")
    p.add_argument("--quick", action="store_true",
                   help="1 s per workload on 8x smaller regions")
    p.add_argument("--self-test", action="store_true",
                   help="flip 3 bits in one block after the workload; the "
                        "run must count exactly one failure")
    p.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    p.add_argument("--out", type=Path, default=None,
                   help="append each run's full record (JSON lines)")
    args = p.parse_args()
    if args.seconds is None and not args.quick:
        args.seconds = float(spec["run_seconds"])
    trace_dir = args.trace_dir or args.build_dir / "traces"

    try:
        binary = build(args.build_dir.resolve())
        workloads = [args.workload] if args.workload else names
        ident = {"git_sha": git_sha(), "source_hash": source_hash()}
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            detail = run_workload(binary, args, workload, trace_dir.resolve())
            metrics, missing = select_metrics(spec, detail, args.trace)
            correct = detail["correct"] and not missing
            failed = detail["failed"] + len(missing)
            print(f"== {workload} seed={args.seed} "
                  f"{'traced' if args.trace else 'untraced'}: "
                  f"{'correct' if correct else 'INCORRECT'}, "
                  f"{detail['attempted']} ops attempted, {failed} failed "
                  f"{detail['failures'] or ''}")
            print("   samples: " + ", ".join(
                f"{k}={v:g}" for k, v in detail["samples"].items()))
            for name, m in metrics.items():
                print(f"   {name:40s} {m['value']:16.6g} {m['unit']}")
            for name in missing:
                print(f"   {name:40s} MISSING")
            if args.out:
                record = dict(detail, trace=args.trace, **ident,
                              metrics={k: v["value"] for k, v in metrics.items()},
                              time=time.time())
                with open(args.out, "a") as f:
                    f.write(json.dumps(record) + "\n")
            total["correct"] = total["correct"] and correct
            total["attempted"] += detail["attempted"]
            total["failed"] += failed
            prefix = "" if args.workload else workload + "."
            for name, m in metrics.items():
                total["metrics"][prefix + name] = m
    except BenchError as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
