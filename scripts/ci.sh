#!/usr/bin/env bash
# Tier-1 CI gate: build + full ctest on the default preset, then the
# ASan+UBSan and TSan presets (TSan runs the concurrency suites), then a
# metrics-export smoke check — every bench-style JSON dump must parse.
# Any sanitizer report fails the run (halt_on_error).
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --fast     # default preset only (skip sanitizers)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

echo "=== tier 1: secmem-lint (repository invariants) ==="
# First, before any test leg: the linter builds in seconds and runs in
# milliseconds, so invariant violations (variable-time compares, naked
# mutexes, unverified snapshot applies, discarded Status, undocumented
# env knobs, stale allowlist entries) fail the run before the expensive
# presets start — see tools/lint/ and ARCHITECTURE.md "Static analysis
# & enforced invariants".
scripts/lint.sh

echo "=== tier 1: default preset build + ctest ==="
cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

echo "=== tier 1: portable crypto kernels (SECMEM_FORCE_PORTABLE=1) ==="
# Same binaries, dispatch pinned to the scalar reference kernels — the
# path CI machines without AES-NI/PCLMULQDQ (and non-x86 ports) take.
SECMEM_FORCE_PORTABLE=1 ctest --preset default -j "$(nproc)"

# The engine has one production path per operation; there are no other
# env legs. The per-block references live in tests/: ReferenceMemory
# (BatchedWritePath.*, SnapshotModeEquivalence.*) diffs the batched write
# drain and snapshot pipeline, the eager tree (tree_cache_kb = 0) is the
# TreeCacheEngine.* twin of the cached one, and declined shared reads are
# driven by *.DeclinedSharedReadsFallBackExclusively.

echo "=== tier 1: end-to-end benchmark correctness (bench_e2e_smoke) ==="
# The benchmark's standalone Release build (the tree e2ebench/run.py
# uses). Its smoke test replays every workload briefly, including the
# checkpoint replication loop that compares replica blocks each cycle,
# and cross-checks Figure 8 against bench_fig8_performance.
cmake -S e2ebench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build -j "$(nproc)"
ctest --test-dir .bench_build --output-on-failure

if [ "$fast" -eq 0 ]; then
  echo "=== ASan + UBSan, asserts on ==="
  # The asan preset drops -DNDEBUG, so this is the leg in which every
  # assert() in src/ and tests/ runs.
  ASAN_OPTIONS="halt_on_error=1:abort_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    bash -c 'cmake --preset asan &&
             cmake --build --preset asan -j "$(nproc)" &&
             ctest --preset asan -j "$(nproc)"'

  echo "=== TSan (concurrency suites) ==="
  # The SeqLock reader-indicator tests race a writer's slot drain against
  # readers on purpose, and the live trace-attach test races attach_trace
  # against byte operations; one lucky pass proves little, so they rerun
  # until the first failure, 20 times. The contended shard-pool test
  # races rotation and the restores — each fanning out on the pool while
  # holding every shard lock — against scrubs and reads; it is slower,
  # so it reruns 10 times, as does the torn-write test that races
  # cross-shard byte reads against byte writes of the same range.
  TSAN_OPTIONS="halt_on_error=1" \
    bash -c 'cmake --preset tsan &&
             cmake --build --preset tsan -j "$(nproc)" &&
             ctest --preset tsan -j "$(nproc)" &&
             ctest --preset tsan -R ConcurrentSeqLock \
               --repeat until-fail:20 &&
             ctest --preset tsan -R LiveTraceAttachDetachDuringByteOps \
               --repeat until-fail:20 &&
             ctest --preset tsan -R ContendedShardPoolNeverDeadlocks \
               --repeat until-fail:10 &&
             ctest --preset tsan -R CrossShardByteReadsNeverSeeTornWrites \
               --repeat until-fail:10'

  # Clang-only legs, gated on availability: containers that ship only gcc
  # still pass tier 1; machines with clang get the full static analysis.
  if command -v clang++ >/dev/null 2>&1; then
    echo "=== clang thread-safety analysis (tidy preset) ==="
    # -Wthread-safety -Werror=thread-safety over the whole tree: a
    # GUARDED_BY access outside its MutexLock is a build failure here.
    cmake --preset tidy
    cmake --build --preset tidy -j "$(nproc)"
    ctest --preset tidy -j "$(nproc)"

    if command -v clang-tidy >/dev/null 2>&1; then
      echo "=== clang-tidy (bugprone, concurrency, performance) ==="
      git ls-files 'src/**/*.cc' | \
        xargs -P "$(nproc)" -n 8 clang-tidy -p build-tidy --quiet
    else
      echo "--- clang-tidy not installed; skipping (gate runs where available)"
    fi
  else
    echo "--- clang++ not installed; skipping thread-safety + clang-tidy legs"
  fi
fi

echo "=== metrics JSON smoke ==="
# Quick engine runs through the CLI plus two benches; every export must be
# valid JSON (python3 is the only parser dependency).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./build/tools/secmem-sim --engine sharded --refs 2000 \
  --metrics-json "$tmp/engine.metrics.json" >/dev/null
# The plain engine's save/delta path and metrics export, through the CLI.
./build/tools/secmem-sim --engine plain --refs 2000 \
  --delta-save "$tmp/plain.delta" \
  --metrics-json "$tmp/plain.metrics.json" >/dev/null
# Benches default their export to the build tree; pin it into $tmp here.
SECMEM_METRICS_JSON="$tmp/fig1_storage.metrics.json" \
  ./build/bench/bench_fig1_storage >/dev/null
# Small-args smoke of the Table 2 bench: one simulator pass per
# workload, with the three counter schemes observing it, and a valid
# metrics export.
SECMEM_METRICS_JSON="$tmp/table2_reencryption.metrics.json" \
  ./build/bench/bench_table2_reencryption 20000 1 >/dev/null
for f in "$tmp"/*.metrics.json; do
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f"
  echo "ok: $f"
done

echo "CI PASSED"
