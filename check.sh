#!/bin/sh
# Repository gate: everything must build, pass vet, pass the full test
# suite with the race detector on, and keep every benchmark runnable so
# the perf trajectory (bench.sh / BENCH_*.json) cannot rot.
#
# Every acceptance criterion is a Go test that the race run executes:
# the serial-vs-parallel and block-engine determinism tests,
# TestSoakGoldens (every soak scenario's report, SLO report and
# telemetry dump pinned against testdata/soak at precompute widths 1
# and 8), TestCrashMatrixGolden (the torn-write crash matrix, clean and
# pinned), and the overload, chaos-mesh and warm-pool gates in
# internal/serve and internal/cluster.
set -eux
cd "$(dirname "$0")"
go build ./...
go vet ./...
# Every tracked Go file is gofmt-clean (git ls-files keeps the walk out
# of .bench_build/).
test -z "$(gofmt -l $(git ls-files '*.go'))"
go test -race ./...
go test -run=NONE -bench=. -benchtime=1x ./...

# The benchmark is its own module (perfbench/go.mod), so the root
# ./... patterns skip it; it calls qarma, kernel, pool and serve
# directly, and an API change there must fail here, not on the next
# benchmark run.
go -C perfbench vet ./...
go -C perfbench test ./...
