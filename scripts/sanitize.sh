#!/usr/bin/env bash
# Sanitized builds + test runs.
#
#   scripts/sanitize.sh asan [ctest args...]   # AddressSanitizer + UBSan
#   scripts/sanitize.sh tsan [ctest args...]   # ThreadSanitizer
#
# With no extra ctest args, tsan runs the concurrency suites — every test
# whose name matches `Sharded|Concurrent`: the sharded engine's stress,
# parallel-writer and contended-writer tests at one and many shards, and
# the *Concurrent* metrics/trace tests — and asan runs everything. Extra
# args are passed to ctest verbatim, e.g.:
#   scripts/sanitize.sh tsan -R ShardedSecureMemoryStress
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-asan}"
shift || true

case "$mode" in
  asan)
    sanitizers="address,undefined"
    dir=build-asan
    default_args=()
    ;;
  tsan)
    sanitizers="thread"
    dir=build-tsan
    default_args=(-R 'Sharded|Concurrent')
    ;;
  *)
    echo "usage: $0 [asan|tsan] [ctest args...]" >&2
    exit 2
    ;;
esac

cmake -B "$dir" -S . -DSECMEM_SANITIZE="$sanitizers" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$dir" -j "$(nproc)"
if [ "$#" -gt 0 ]; then
  default_args=("$@")
fi
(cd "$dir" && ctest --output-on-failure "${default_args[@]}")
