#!/usr/bin/env bash
# Sanitized builds + test runs.
#
#   scripts/sanitize.sh asan [ctest args...]   # AddressSanitizer + UBSan
#   scripts/sanitize.sh tsan [ctest args...]   # ThreadSanitizer
#
# The asan build keeps assert() on (no -DNDEBUG): it is the one build
# in which the code's asserts run, since every other preset defines
# NDEBUG.
#
# With no extra ctest args, tsan runs the concurrency suites — every test
# whose name matches `Sharded|Concurrent`: the sharded engine's stress,
# parallel-writer and contended-writer tests at one and many shards, the
# live trace attach/detach under cross-shard byte operations
# (ShardedSecureMemoryStress.LiveTraceAttachDetachDuringByteOps), byte
# reads racing byte writes of one range across a shard boundary
# (ShardedSecureMemoryStress.CrossShardByteReadsNeverSeeTornWrites), every
# pool fan-out at once — rotation and the restores under every shard
# lock, against scrubs and reads
# (ShardedSecureMemoryStress.ContendedShardPoolNeverDeadlocks), the
# per-shard tree caches under threads
# (TreeCacheEngine.ShardedStressWithPerShardCaches), the SeqLock
# reader-indicator tests (ConcurrentSeqLock.*), the per-thread metrics
# stripes (ConcurrentMetricsCell.*) and the other *Concurrent*
# metrics/trace tests — and asan runs everything. Extra args are passed
# to ctest verbatim, e.g.:
#   scripts/sanitize.sh tsan -R ShardedSecureMemoryStress
#   scripts/sanitize.sh tsan -R ConcurrentSeqLock --repeat until-fail:20
#   scripts/sanitize.sh tsan -R LiveTraceAttach --repeat until-fail:20
#   scripts/sanitize.sh tsan -R ContendedShardPool --repeat until-fail:10
#   scripts/sanitize.sh tsan -R CrossShardByteReads --repeat until-fail:10
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-asan}"
shift || true

case "$mode" in
  asan)
    sanitizers="address,undefined"
    dir=build-asan
    cxx_flags="-O2 -g"
    default_args=()
    ;;
  tsan)
    sanitizers="thread"
    dir=build-tsan
    cxx_flags="-O2 -g -DNDEBUG"
    default_args=(-R 'Sharded|Concurrent')
    ;;
  *)
    echo "usage: $0 [asan|tsan] [ctest args...]" >&2
    exit 2
    ;;
esac

cmake -B "$dir" -S . -DSECMEM_SANITIZE="$sanitizers" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="$cxx_flags"
cmake --build "$dir" -j "$(nproc)"
if [ "$#" -gt 0 ]; then
  default_args=("$@")
fi
(cd "$dir" && ctest --output-on-failure "${default_args[@]}")
