#!/bin/sh
# secmem-sim must reject a malformed flag value with exit status 2 and an
# error message: a value like `--tree-cache-kb off`, `--shards 0` or
# `--engine concurrent` must never run a different configuration than the
# one asked for.
#
#   tests/secmem_sim_bad_flags.sh path/to/secmem-sim
sim="$1"
status=0

# reject PATTERN ARGS...: secmem-sim ARGS exits 2 with PATTERN on stderr.
reject() {
  pattern="$1"
  shift
  err=$("$sim" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ] || ! printf '%s' "$err" | grep -qF -- "$pattern"; then
    echo "FAIL: secmem-sim $* exited $code: $err"
    status=1
  fi
}

reject "expects an integer" --tree-cache-kb off
reject "expects an integer" --shards abc
reject "expects an integer" --threads -1
reject "expects an integer" --refs 12x
reject "expects an integer" --warmup ""
reject "expects an integer" --seed 0x10
reject "expects an integer" --protected-mb 99999999999999999999
# Zero is not a shard or thread count.
reject "error: --shards expects an integer in [1, " --shards 0
reject "error: --threads expects an integer in [1, " --threads 0
# Engine kinds are plain | sharded; nothing else runs.
reject "plain | sharded" --engine concurrent
reject "plain | sharded" --engine single-mutex

# Well-formed values still parse.
if ! "$sim" --refs 100 --seed 7 --tree-cache-kb 0 --list-workloads >/dev/null; then
  echo "FAIL: secmem-sim rejected well-formed integer flags"
  status=1
fi
exit $status
