#!/bin/sh
# Repository gate: everything must build, pass vet, pass the full test
# suite with the race detector on (which includes the serial-vs-
# parallel determinism tests and TestSoakGoldens, which pins every soak
# scenario's report, SLO report and telemetry dump against
# testdata/soak at precompute widths 1 and 8), and keep every benchmark
# runnable so the perf trajectory (bench.sh / BENCH_*.json) cannot rot.
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

# Trace-compilation gate: the block-compiled engine must be observably
# identical to the single-step oracle — the cpu differential suite
# (every exit shape, invalidation edge, armed-hook and traced
# fallback) plus the root suites DeepEqual'd across both engines, all
# under the race detector, then a one-iteration smoke of the block
# engine's headline benchmark so BenchmarkEngine cannot rot.
go test -race -run 'TestBlock|TestSetRegsForcesXZRSlot' ./internal/cpu
go test -race -run 'BlockEngineDeterminism' .
go test -run=NONE -bench '^BenchmarkEngine$' -benchtime=1x .

# Crash-consistency gate: the torn-write crash matrix (every commit-
# protocol offset x 8 seeds, plus seeded bit rot / truncation /
# duplicate-rename faults). The binary exits non-zero on any silent
# restore, replay divergence, or recovery panic; the double run plus
# cmp enforces that the campaign itself is deterministic — including
# the store-telemetry dump embedded in the -json report.
go run -race ./cmd/pacstack-snap -crash-matrix -json > /tmp/pacstack-snap-a.json
go run -race ./cmd/pacstack-snap -crash-matrix -json > /tmp/pacstack-snap-b.json
cmp /tmp/pacstack-snap-a.json /tmp/pacstack-snap-b.json
rm -f /tmp/pacstack-snap-a.json /tmp/pacstack-snap-b.json

# Overload-control gate: the canned 10x burst must break static
# admission (shed/error budgets blown) while the AIMD-resized pool
# holds every class SLO — non-zero exit unless both halves hold, so
# neither a toothless scenario nor a regressed controller can pass.
go run -race ./cmd/pacstack-soak -traffic-gate -seed 42 -workers 4 -cores 32 -chaos-rate 0.02 -heal 1 > /dev/null

# Chaos-mesh gate: the same scenario naive vs resilient — non-zero
# exit unless the naive fleet demonstrably blows at least one class
# SLO behind the gray link, the resilient fleet holds every class
# through the same faults (zero hedge key-sharing violations, per
# PACStack §4.3 key independence), and its secondaries stayed inside
# the configured retry budget.
go run -race ./cmd/pacstack-cluster -mesh-gate -seed 42 > /dev/null

# Warm-pool gate: cold-model vs warm-model at one seed — non-zero exit
# unless the closed-loop halves agree EXACTLY on every outcome count
# (the §4.3 draw-parity property measured end to end) with warm goodput
# >= 10x cold, the boot-dominated open-loop half clears 20x, both warm
# halves actually served from the pools, and zero image-key
# violations were recorded anywhere.
go run -race ./cmd/pacstack-soak -warm-gate -clients 6 -requests 12 -seed 7 -chaos-rate 0.1 -heal 1 > /dev/null
