#!/usr/bin/env bash
# Builds the cloudwatch server and the benchmark harness from source,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds, stores, and
# traces stays under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root" && go build -o "$out/cloudwatch" ./cmd/cloudwatch) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/cloudwatch" -work "$out/work" "$@"
