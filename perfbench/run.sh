#!/usr/bin/env bash
# Builds solverd, gateway and the perfbench harness from this checkout, then
# runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload solve-fv1 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files) stays
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/solverd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/solverd and perfbench/ must exist)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GO111MODULE=on GOWORK=off GOPROXY=off GOSUMDB=off

go build -o "$out/bin/" ./cmd/solverd ./cmd/gateway >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" "$@"
