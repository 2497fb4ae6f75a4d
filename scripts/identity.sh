#!/usr/bin/env bash
# Output-identity check against an earlier revision: builds
# cmd/cloudwatch at PARENT_REV (through a temporary git worktree) and
# from the working tree, runs both over the acceptance matrix, and
# diffs their stdout and stderr byte for byte.
#
#   scripts/identity.sh PARENT_REV
#
# The matrix: seeds 42 and 7 x years 2020-2022 x -workers 1 and 4, for
# -experiment all and -experiment appendix, plus one sweep of the
# baseline and stealth scenarios. Sweep timings (the JSON "seconds" and
# "renders_per_sec" fields and the "swept ... in" summary line) are
# dropped before the diff. Builds are offline. Exits non-zero on any
# difference.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_REV" >&2
  exit 2
fi
rev="$(git rev-parse --verify "$1^{commit}")"

dir="$(mktemp -d)"
cleanup() {
  git worktree remove --force "$dir/parent-src" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
git worktree add --quiet --detach "$dir/parent-src" "$rev"
(cd "$dir/parent-src" && go build -o "$dir/parent" ./cmd/cloudwatch)
go build -o "$dir/change" ./cmd/cloudwatch

# run NAME ARGS...: runs both binaries, keeping stdout and stderr.
run() {
  local name="$1"
  shift
  for side in parent change; do
    "$dir/$side" "$@" >"$dir/$side.$name.out" 2>"$dir/$side.$name.err"
  done
}

names=()
for seed in 42 7; do
  for year in 2020 2021 2022; do
    for workers in 1 4; do
      for exp in all appendix; do
        name="$exp-s$seed-y$year-w$workers"
        GOMAXPROCS="$workers" run "$name" -experiment "$exp" -seed "$seed" -year "$year" -workers "$workers"
        names+=("$name")
      done
    done
  done
done
run sweep -experiment sweep -scenario baseline,stealth -sweep-tables table2,table5 -sweep-kmax 3
names+=(sweep)
for side in parent change; do
  sed -i -e '/^ *"seconds": /d' -e '/^ *"renders_per_sec": /d' "$dir/$side.sweep.out"
  sed -i -e 's/ in [0-9.]*s ([0-9.]* renders\/sec)$//' "$dir/$side.sweep.err"
done

fail=0
for name in "${names[@]}"; do
  for stream in out err; do
    if ! cmp -s "$dir/parent.$name.$stream" "$dir/change.$name.$stream"; then
      echo "DIFF $name std$stream" >&2
      diff "$dir/parent.$name.$stream" "$dir/change.$name.$stream" | head -20 >&2 || true
      fail=1
    fi
  done
done
if [ "$fail" -ne 0 ]; then
  echo "FAIL: output differs from $rev" >&2
  exit 1
fi
echo "identical to $rev: ${#names[@]} runs, stdout and stderr"
