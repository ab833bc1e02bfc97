#!/usr/bin/env python3
"""Write BENCH_crypto.json from bench_micro_crypto output.

Takes two Google Benchmark JSON files written by bench_micro_crypto, one
with the default (accelerated) dispatch and one with
SECMEM_FORCE_PORTABLE=1, and writes the whole of BENCH_crypto.json from
them; `host` and `date` come from the accelerated run's context. Use a
Release build:

  B=build/bench/bench_micro_crypto
  F='--benchmark_filter=AesEncryptBlock|CtrKeystream|KeystreamAndPad|Gf64MulBackend|CwMac|FlipAndCheck'
  F="$F --benchmark_min_time=0.2"
  $B $F --benchmark_out=accel.json --benchmark_out_format=json
  SECMEM_FORCE_PORTABLE=1 $B $F --benchmark_out=portable.json \\
      --benchmark_out_format=json
  python3 scripts/bench_crypto_rows.py accel.json portable.json
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "BENCH_crypto.json"
TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
BATCH = 64


def load(path):
    """(context, {benchmark name: iteration row}) of one bench JSON file."""
    with open(path) as f:
        doc = json.load(f)
    rows = {r["name"]: r for r in doc["benchmarks"]
            if r.get("run_type", "iteration") == "iteration"}
    return doc["context"], rows


def times_ns(rows):
    return {name: r["real_time"] * TO_NS[r["time_unit"]]
            for name, r in rows.items()}


def throughput(ns_per_block):
    """64 bytes per `ns_per_block`, as a human-readable rate."""
    mb_per_s = 64 / ns_per_block * 1e3
    if mb_per_s >= 1000:
        return f"{mb_per_s / 1000:.2f} GB/s"
    return f"{mb_per_s:.0f} MB/s"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    context, accel_rows = load(sys.argv[1])
    _, portable_rows = load(sys.argv[2])
    accel, portable = times_ns(accel_rows), times_ns(portable_rows)

    def pair(soft, hard, soft_key, hard_key):
        return {soft_key: round(soft, 1), hard_key: round(hard, 2),
                "speedup": round(soft / hard, 1)}

    def flip_and_check(name):
        bench = f"BM_FlipAndCheck{name}WorstCaseIncremental"
        return {"accelerated_ns": round(accel[bench]),
                "portable_ns": round(portable[bench]),
                "mac_evals": int(accel_rows[bench]["mac_evals"])}

    soft_ks = accel["BM_CtrKeystream64BBackend/portable"]
    hard_ks = accel["BM_CtrKeystream64BBackend/accel"]
    doc = {
        "description": "Crypto-kernel costs from bench/bench_micro_crypto "
                       "(Release, --benchmark_min_time=0.2, single core): "
                       "the accelerated dispatch (AES-NI, PCLMULQDQ) "
                       "against the portable kernels (SECMEM_FORCE_PORTABLE=1 "
                       "or the per-backend bench variants), plus the "
                       "production flip-and-check corrector's paper §3.4 "
                       "worst cases. Both dispatch paths are bit-identical "
                       "(tests/test_crypto_dispatch.cc). Absolute ns drift "
                       "with host load; compare rows of one file.",
        "command": "scripts/bench_crypto_rows.py over two bench_micro_crypto "
                   "--benchmark_out JSON files (default dispatch and "
                   "SECMEM_FORCE_PORTABLE=1); see that script's docstring",
        "date": context["date"][:10],
        "host": f"{context['host_name']}, {context['num_cpus']} CPUs @ "
                f"{context['mhz_per_cpu']} MHz",
        "aes128_encrypt_block": pair(portable["BM_AesEncryptBlock"],
                                     accel["BM_AesEncryptBlock"],
                                     "portable_ns", "aesni_ns"),
        "ctr_keystream_64B": {
            **pair(soft_ks, hard_ks, "portable_ns", "aesni_ns"),
            "portable_throughput": throughput(soft_ks),
            "aesni_throughput": throughput(hard_ks),
            "acceptance": "required >= 4x",
        },
        "ctr_keystream_batch64": {
            **pair(portable["BM_CtrKeystreamBatch64"] / BATCH,
                   accel["BM_CtrKeystreamBatch64"] / BATCH,
                   "portable_ns_per_block", "aesni_ns_per_block"),
            "note": "generate_batch of 64 keystreams, two per "
                    "encrypt_blocks8 call",
        },
        "ctr_keystream_with_pad_64B": {
            "portable_serial_ns": round(
                accel["BM_KeystreamAndPad/serial_portable"], 1),
            "portable_fused_ns": round(
                accel["BM_KeystreamAndPad/fused_portable"], 1),
            "aesni_serial_ns": round(
                accel["BM_KeystreamAndPad/serial_accel"], 2),
            "aesni_fused_ns": round(accel["BM_KeystreamAndPad/fused_accel"], 2),
            "aesni_fused_saving": round(
                1 - accel["BM_KeystreamAndPad/fused_accel"]
                / accel["BM_KeystreamAndPad/serial_accel"], 3),
            "note": "one block op's cipher work: the 64-byte keystream plus "
                    "the MAC pad. serial = CtrKeystream::generate then "
                    "CwMac::pad_for; fused = CwMac::keystream_and_pad, one "
                    "encrypt4_1 call with five interleaved AES chains",
        },
        "gf64_mul": {
            **pair(accel["BM_Gf64MulBackend/portable"],
                   accel["BM_Gf64MulBackend/accel"],
                   "portable_ns", "pclmul_ns"),
            "note": "bitwise shift-reduce vs PCLMULQDQ + double-fold "
                    "reduction; CwMac's 16KB windowed table is only built "
                    "on the portable path",
        },
        "cw_mac_block_64B": pair(accel["BM_CwMacBlockBackend/portable"],
                                 accel["BM_CwMacBlockBackend/accel"],
                                 "portable_ns", "accelerated_ns"),
        "cw_mac_compute_batch64": {
            **pair(portable["BM_CwMacComputeBatch64"] / BATCH,
                   accel["BM_CwMacComputeBatch64"] / BATCH,
                   "portable_ns_per_block", "accelerated_ns_per_block"),
            "note": "pads 8-wide through encrypt_blocks8, one fold8 per block",
        },
        "cw_mac_prf_delta_command": {
            **pair(portable["BM_CwMacPrfDeltaCommand"] / 1e3,
                   accel["BM_CwMacPrfDeltaCommand"] / 1e3,
                   "portable_us", "accelerated_us"),
            "note": "compute_prf over a 192 KiB delta command stream",
        },
        "flip_and_check_single_bit_worst": flip_and_check("SingleBit"),
        "flip_and_check_double_bit_worst": {
            **flip_and_check("DoubleBit"),
            "note": "FlipAndCheck::correct_incremental on the last pair "
                    "searched: each candidate trial is one XOR + masked "
                    "compare via polyhash linearity instead of a full "
                    "8-multiply block hash",
        },
    }
    TARGET.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
