#!/usr/bin/env bash
# Builds pacstack-serve, pacstack-soak, pacstack-cluster and the
# benchmark (perfbench) from this checkout, then runs the benchmark with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-chain --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pacstack-serve || ! -d internal ]]; then
	echo "perfbench: run from the root of a pacstack checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/" ./cmd/pacstack-serve ./cmd/pacstack-soak ./cmd/pacstack-cluster
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
