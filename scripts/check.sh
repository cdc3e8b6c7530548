#!/bin/sh
# The tier-1 verification gate (see ROADMAP.md): format, vet, build, and
# the full test suite under the race detector, once — for the root module
# and for the nested benchmark module (benchmark/, its own go.mod), which
# the root `./...` does not reach. One iteration of every benchmark in the
# root package (bench_test.go) and in internal/core (BenchmarkPruneVG,
# BenchmarkInsertBuffers, BenchmarkBuffOptScaling, ...) runs too, so a
# broken benchmark fails here instead of going unnoticed. The long soaks stay behind their make
# targets (make soak, fleetsoak, tracesoak, restartsoak, ecosoak). Run from
# the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "check: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -run '^\$' -bench . -benchtime 1x . ./internal/core"
go test -run '^$' -bench . -benchtime 1x . ./internal/core

echo "== go -C benchmark vet ./..."
go -C benchmark vet ./...

echo "== go -C benchmark test ./..."
go -C benchmark test ./...

echo "check: OK"
