#!/usr/bin/env python3
"""bench_e2e_smoke: a quick end-to-end check of the benchmark itself.

Runs every workload through run.py with --quick (1 s each, 8x smaller
regions), untraced and traced, against an existing build directory, and
asserts that:
  - every metric named in BENCHMARK.json is reported, with its unit;
  - no run counts a failure, and no end-to-end metric reads 0;
  - on every engine workload the five attribution shares add up to 1;
  - the quick fig8_sim IPC rows equal bench_fig8_performance --csv at the
    same reference count;
  - a --self-test run, which flips 3 bits in one block, counts exactly
    one failure.

  python3 e2ebench/smoke.py --bin-dir .bench_build
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 42  # SystemConfig's default seed, which bench_fig8_performance uses
FIG8_QUICK_REFS = 3000
SHARES = ("crypto.est_share", "ecc.est_share", "tree.est_share",
          "counters.est_share", "engine.unattributed_share")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(bin_dir, out, workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--quick", "--trace", str(trace),
           "--build-dir", str(bin_dir), "--trace-dir", str(out.parent),
           "--out", str(out), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return done.returncode, result, records[-1] if records else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--bin-dir", type=Path, required=True)
    bin_dir = p.parse_args().bin_dir.resolve()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(dir=bin_dir) as tmp:
        out = Path(tmp) / "smoke.jsonl"
        out.touch()
        fig8_rows = None
        for w in spec["workloads"]:
            name = w["name"]
            for trace, entries in ((0, spec["end_to_end"]),
                                   (1, spec["per_layer"])):
                code, result, record = run(bin_dir, out, name, trace)
                tag = f"{name} trace={trace}"
                check(code == 0 and result is not None, f"{tag}: exit {code}")
                if result is None:
                    continue
                check(result["correct"] and result["failed"] == 0,
                      f"{tag}: {record and record['failures']}")
                for e in entries:
                    m = result["metrics"].get(e["name"])
                    check(m is not None and m["unit"] == e["unit"],
                          f"{tag}: {e['name']} missing or wrong unit")
                    if trace == 0 and m is not None:
                        check(m["value"] > 0, f"{tag}: {e['name']} reads 0")
                if trace == 1 and name != "fig8_sim":
                    total = sum(result["metrics"][s]["value"] for s in SHARES)
                    check(abs(total - 1.0) < 1e-9,
                          f"{tag}: attribution shares add up to {total}")
                if trace == 1:
                    check(Path(record["spans_file"]).is_file(),
                          f"{tag}: no spans file")
                if trace == 0 and name == "fig8_sim":
                    fig8_rows = record["fig8_csv"]

        done = subprocess.run(
            [str(bin_dir / "bench_fig8_performance"), "--csv",
             str(FIG8_QUICK_REFS)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, SECMEM_METRICS_JSON=""))
        reference = [line for line in done.stdout.splitlines()
                     if line.startswith("csv,")]
        check(done.returncode == 0 and reference and fig8_rows == reference,
              f"fig8_sim IPC {fig8_rows} != bench_fig8_performance {reference}")

        code, result, _ = run(bin_dir, out, "kv_hot", 0, "--self-test")
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] == 1,
              f"self-test: exit {code}, result {result and result['failed']} "
              f"failures (want exit 1, exactly 1 failure)")

    print(f"bench_e2e_smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
