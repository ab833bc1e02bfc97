#!/usr/bin/env python3
"""Regenerate the measured rows of BENCH_crypto.json from bench output.

Takes two Google Benchmark JSON files written by bench_micro_crypto, one
with the default (accelerated) dispatch and one with
SECMEM_FORCE_PORTABLE=1, and rewrites the gf64_mul, cw_mac_block_64B,
cw_mac_compute_batch64 and cw_mac_prf_delta_command rows in place:

  B=build/bench/bench_micro_crypto
  F='--benchmark_filter=Gf64MulBackend|CwMac --benchmark_min_time=0.2'
  $B $F --benchmark_out=accel.json --benchmark_out_format=json
  SECMEM_FORCE_PORTABLE=1 $B $F --benchmark_out=portable.json \\
      --benchmark_out_format=json
  python3 scripts/bench_crypto_rows.py accel.json portable.json

Other rows of the file are left as they are.
"""

import datetime
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "BENCH_crypto.json"
TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
BATCH = 64


def times_ns(path):
    with open(path) as f:
        runs = json.load(f)["benchmarks"]
    return {r["name"]: r["real_time"] * TO_NS[r["time_unit"]] for r in runs
            if r.get("run_type", "iteration") == "iteration"}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    accel, portable = times_ns(sys.argv[1]), times_ns(sys.argv[2])
    doc = json.loads(TARGET.read_text())

    def pair(soft, hard, soft_key, hard_key):
        return {soft_key: round(soft, 1), hard_key: round(hard, 2),
                "speedup": round(soft / hard, 1)}

    doc["gf64_mul"] = {
        **pair(accel["BM_Gf64MulBackend/portable"],
               accel["BM_Gf64MulBackend/accel"], "portable_ns", "pclmul_ns"),
        "note": doc["gf64_mul"].get("note", ""),
    }
    doc["cw_mac_block_64B"] = pair(accel["BM_CwMacBlockBackend/portable"],
                                   accel["BM_CwMacBlockBackend/accel"],
                                   "portable_ns", "accelerated_ns")
    doc["cw_mac_compute_batch64"] = {
        **pair(portable["BM_CwMacComputeBatch64"] / BATCH,
               accel["BM_CwMacComputeBatch64"] / BATCH,
               "portable_ns_per_block", "accelerated_ns_per_block"),
        "note": "pads 8-wide through encrypt_blocks8, one fold8 per block",
    }
    doc["cw_mac_prf_delta_command"] = {
        **pair(portable["BM_CwMacPrfDeltaCommand"] / 1e3,
               accel["BM_CwMacPrfDeltaCommand"] / 1e3,
               "portable_us", "accelerated_us"),
        "note": "compute_prf over a 192 KiB delta command stream",
    }
    doc["measured_rows"] = {
        "rows": ["gf64_mul", "cw_mac_block_64B", "cw_mac_compute_batch64",
                 "cw_mac_prf_delta_command"],
        "command": "scripts/bench_crypto_rows.py over two bench_micro_crypto "
                   "--benchmark_out JSON files (default dispatch and "
                   "SECMEM_FORCE_PORTABLE=1); see that script's docstring",
        "date": datetime.date.today().isoformat(),
    }
    TARGET.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
