#!/bin/sh
# check.sh — the repo's verification gate: vet, build, and race-test
# everything. Run from the repository root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== myproxy-vet ./... (syntactic + flow-sensitive + concurrency + distributed-protocol + hot-path cost + trust-boundary taint passes)"
go run ./cmd/myproxy-vet -baseline vet-baseline.txt -budget vet-cost-budget.txt ./...

echo "== vet-baseline.txt stays empty (real findings are fixed or pragma'd, never baselined)"
if grep -v '^#' vet-baseline.txt | grep -q '[^[:space:]]'; then
    echo "error: vet-baseline.txt carries entries; fix the findings or add //myproxy:allow pragmas with rationale" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./internal/keypool ./internal/gsi ./internal/core ./internal/httpgate (hot-path concurrency)"
go test -race -count=1 ./internal/keypool ./internal/gsi ./internal/core ./internal/httpgate

echo "== go test -race cluster failover smoke (kill-one-replica drill, DESIGN.md §12)"
go test -race -count=1 ./internal/cluster
go test -race -count=1 -run 'TestClusterFailover|TestClusterPartition' ./internal/sim

echo "== fuzz smoke (wire parsers + frame decoders, time-boxed)"
go test -run='^$' -fuzz=FuzzParseRequest -fuzztime=5s ./internal/protocol
go test -run='^$' -fuzz=FuzzParseResponse -fuzztime=5s ./internal/protocol
go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=5s ./internal/gsi
go test -run='^$' -fuzz=FuzzReadStreamFrame -fuzztime=5s ./internal/gsi

echo "== go test -race ./..."
go test -race ./...

echo "== OK"
