#!/usr/bin/env python3
"""Spread report and A/B comparison of end-to-end benchmark results.

Result files hold the JSON lines that `run.py --out FILE` appends, one
record per run.

  python3 e2ebench/compare.py A.jsonl            # run-to-run spread of one set
  python3 e2ebench/compare.py A.jsonl B.jsonl    # A = parent, B = change
  python3 e2ebench/compare.py --run PARENT CHANGE --out-dir DIR [--pairs 10]
      # run alternating pairs from two checkouts, then compare them

A comparison pairs the two sides' untraced runs by seed and reports, per
workload and end-to-end metric, each side's median and quartiles, the
share of pairs B wins (ties count for neither side) and a verdict:

  improved             B wins at least 9 in 10 pairs and the medians differ
                       by more than A's interquartile range
  no worse than bound  B's median is not worse than A's by more than the
                       metric's bound from BENCHMARK.json
  unresolved           fewer than 10 pairs, or A's own spread is wider than
                       the bound and not every B run beats every A run
  regressed            B's median is worse than A's by more than the bound

Traced runs with the same seed on both sides must agree exactly on the
deterministic metrics (simulated Figure 8 statistics, snapshot sizes).
Results from hosts or builds with different fingerprints are refused.

Exit status: 0, 1 when a metric regressed or a deterministic metric
differs, 2 on unusable input.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT_KEYS = ("cpu", "nproc", "crypto_backend", "compiler",
                    "build_type", "env")
DETERMINISTIC_PREFIXES = ("sim.", "metacache.")
DETERMINISTIC = {"engine.delta_bytes_ratio", "engine.image_bytes_per_byte",
                 "engine.dirty_granule_share"}
MIN_PAIRS = 10


def is_deterministic(name):
    return name in DETERMINISTIC or (name.startswith(DETERMINISTIC_PREFIXES)
                                     and not name.endswith(".mrefs_per_s"))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_fingerprints(records):
    seen = {tuple(r["fingerprint"].get(k) for k in FINGERPRINT_KEYS)
            for r in records}
    if len(seen) > 1:
        rows = "\n  ".join(repr(dict(zip(FINGERPRINT_KEYS, fp))) for fp in seen)
        sys.exit(f"error: results come from different hosts or builds:\n  {rows}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def by_workload(records, traced):
    out = {}
    for r in records:
        if bool(r.get("trace")) == traced:
            out.setdefault(r["workload"], {}).setdefault(r["seed"], r)
    return out


def spread_report(records, spec):
    print(f"{'workload':15s} {'metric':14s} {'n':>3s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for workload, runs in by_workload(records, False).items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs.values()]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] else "  over bound"
            print(f"{workload:15s} {m['name']:14s} {len(values):3d} "
                  f"{med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%} "
                  f"{m['bound']:6.0%}{flag}")
    return 0


def verdict(a, b, metric):
    lower = metric["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(better(y, x) for x, y in zip(a, b))
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    worse = ((b_med - a_med) if lower else (a_med - b_med)) / a_med
    if len(a) < MIN_PAIRS:
        return wins, "unresolved"
    if (wins >= 0.9 * len(a) and worse < 0
            and abs(b_med - a_med) > a_q3 - a_q1):
        return wins, "improved"
    if ((a_q3 - a_q1) / a_med > metric["bound"]
            and not all(better(y, x) for x in a for y in b)):
        return wins, "unresolved"
    return wins, "regressed" if worse > metric["bound"] else "no worse than bound"


def compare_report(a_records, b_records, spec):
    status = 0
    a_runs, b_runs = by_workload(a_records, False), by_workload(b_records, False)
    print(f"{'workload':15s} {'metric':14s} {'pairs':>5s} "
          f"{'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
          f"{'change':>8s} {'B wins':>7s}  verdict")
    for workload in a_runs:
        seeds = sorted(set(a_runs[workload]) & set(b_runs.get(workload, {})))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            a = [a_runs[workload][s]["metrics"][m["name"]] for s in seeds]
            b = [b_runs[workload][s]["metrics"][m["name"]] for s in seeds]
            wins, word = verdict(a, b, m)
            status |= word == "regressed"
            aq, bq = quartiles(a), quartiles(b)
            a_col = f"{aq[1]:.6g} [{aq[0]:.6g}, {aq[2]:.6g}]"
            b_col = f"{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
            print(f"{workload:15s} {m['name']:14s} {len(seeds):5d} "
                  f"{a_col:>36s} {b_col:>36s} {(bq[1] - aq[1]) / aq[1]:+8.2%} "
                  f"{wins:3d}/{len(seeds):<3d}  {word}")

    a_traced, b_traced = by_workload(a_records, True), by_workload(b_records, True)
    for workload, runs in a_traced.items():
        for seed in sorted(set(runs) & set(b_traced.get(workload, {}))):
            a, b = runs[seed]["metrics"], b_traced[workload][seed]["metrics"]
            diffs = [n for n in a if is_deterministic(n) and a[n] != b.get(n)]
            for name in diffs:
                print(f"{workload} seed {seed}: deterministic {name} differs: "
                      f"{a[name]!r} -> {b.get(name)!r}")
            status |= bool(diffs)
            if not diffs:
                print(f"{workload} seed {seed}: deterministic metrics identical")
    return status


def run_pairs(args, spec):
    """Alternate which side runs first in each pair; both sides of a pair
    use the same seed. One traced run per side per workload follows, for
    the deterministic-metric check."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"A": args.run[0], "B": args.run[1]}
    outs = {k: args.out_dir / f"{k}.jsonl" for k in sides}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    def run(side, workload, seed, trace):
        cmd = [sys.executable, str(Path(sides[side]) / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", str(outs[side].resolve())]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        print(f"[{side}] {workload} seed {seed} trace {trace}", file=sys.stderr)
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if done.returncode == 2:
            sys.exit(f"error: {sides[side]} could not run {workload}")

    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                run(side, workload, args.seed + i, 0)
    for workload in workloads:
        for side in ("A", "B"):
            run(side, workload, args.seed, 1)
    return load(outs["A"]), load(outs["B"])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("files", nargs="*", type=Path,
                   help="one result file (spread) or two (A/B)")
    p.add_argument("--run", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="repository checkouts to run alternating pairs from")
    p.add_argument("--out-dir", type=Path, help="where --run writes A/B.jsonl")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, default=1, help="first pair's seed")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--workload", action="append",
                   help="restrict --run to these workloads (repeatable)")
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    if args.run:
        if args.files or not args.out_dir:
            p.error("--run takes no result files and needs --out-dir")
        a, b = run_pairs(args, spec)
    elif len(args.files) == 1:
        records = load(args.files[0])
        check_fingerprints(records)
        return spread_report(records, spec)
    elif len(args.files) == 2:
        a, b = load(args.files[0]), load(args.files[1])
    else:
        p.error("give one result file, two, or --run")
    check_fingerprints(a + b)
    return compare_report(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
