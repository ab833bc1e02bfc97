#!/bin/sh
# secmem-sim must reject a malformed integer flag value with exit status 2
# and an error message: a value like `--tree-cache-kb off` must never run
# a different configuration than the one asked for.
#
#   tests/secmem_sim_bad_flags.sh path/to/secmem-sim
sim="$1"
status=0

reject() {
  err=$("$sim" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ] || ! printf '%s' "$err" | grep -q "expects an integer"; then
    echo "FAIL: secmem-sim $* exited $code: $err"
    status=1
  fi
}

reject --tree-cache-kb off
reject --shards abc
reject --threads -1
reject --refs 12x
reject --warmup ""
reject --seed 0x10
reject --protected-mb 99999999999999999999

# Well-formed values still parse.
if ! "$sim" --refs 100 --seed 7 --tree-cache-kb 0 --list-workloads >/dev/null; then
  echo "FAIL: secmem-sim rejected well-formed integer flags"
  status=1
fi
exit $status
