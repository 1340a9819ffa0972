# Standard entry points; `make check` is the verification gate
# (vet + lint + build + fuzz smoke + stress + race-enabled tests), also
# available as scripts/check.sh.

GO ?= go

.PHONY: all build vet vet-self vet-stats lint test race race-hotpath race-failover fuzz-smoke stress check bench bench-pairs clean

all: build

build:
	$(GO) build ./...

# vet fails first on any file gofmt would rewrite (a `//` line belongs
# between a doc comment and a //myproxy: directive), then runs go vet.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: run gofmt -w on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# lint is the static-analysis gate (DESIGN.md "Static-analysis gate"): the
# repo's own analyzer suite over the whole module, which exits nonzero on
# any finding without a //myproxy:allow <pass> <reason> pragma at its site,
# then the kill matrix (internal/analysis/killmatrix_test.go), which plants
# each recorded defect in a copy of the module and fails when the pass or
# test recorded as its catcher no longer catches it — or when a pass is no
# row's catcher.
lint:
	$(GO) run ./cmd/myproxy-vet ./...
	$(GO) test ./internal/analysis -run 'TestKillMatrix' -count=1 -timeout 30m -killmatrix

# vet-stats runs the same suite and reports per-pass wall time and finding
# counts as JSON (on stderr, after any findings).
vet-stats:
	$(GO) run ./cmd/myproxy-vet -stats ./...

# vet-self is the fast loop when developing an analyzer pass: the CFG and
# call-graph unit tests and the golden fixtures only, no repo-wide load.
vet-self:
	$(GO) test ./internal/analysis -run 'TestCFG|TestCallGraph|TestGolden|TestPragmaScoping|TestLockFlow|TestSARIF'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hotpath re-runs the concurrency-heavy performance substrate (key
# pool, GSI channels, the verification cache and its anchors, repository
# core, and the HTTP gateway that calls the same service) under the race
# detector with a fresh count, independent of the cached full run.
race-hotpath:
	$(GO) test -race -count=1 ./internal/keypool ./internal/gsi ./internal/proxy ./internal/core ./internal/httpgate

# race-failover re-runs the cluster package — the router over fakes, and the
# held node sessions over real repositories (revocation, a silent node, a
# node without session mode) — and the deterministic kill-one-replica /
# partition-ambiguity drills (DESIGN.md §12) with a fresh count.
race-failover:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'TestClusterFailover|TestClusterPartition' ./internal/sim

# fuzz-smoke runs each native fuzz target for a few seconds: the wire
# parsers (protocol requests/responses) and the GSI frame decoders, seeded
# from the golden exchanges, and the byte-level proxy subject and
# ProxyCertInfo readings against their encoding/asn1 references, seeded
# from real chains. A short time box keeps `make check` fast; longer
# campaigns are a manual `go test -fuzz=... -fuzztime=10m`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=5s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=5s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=5s ./internal/gsi
	$(GO) test -run='^$$' -fuzz=FuzzReadStreamFrame -fuzztime=5s ./internal/gsi
	$(GO) test -run='^$$' -fuzz=FuzzParseProxyCertInfo -fuzztime=5s ./internal/proxy
	$(GO) test -run='^$$' -fuzz=FuzzProxySubject -fuzztime=5s ./internal/proxy

# stress repeats, under the race detector, the tests that were
# schedule-dependent before the GSI endpoint existed once (DESIGN.md §18) —
# pipelined session streams, refuse-before-read, the reused held connection —
# the endpoint's own package, and the held session's life (DESIGN.md §14):
# re-dial after a restart, a cut in and outside a commit window, the drain of
# idle and busy sessions. Last, the chain mutator (DESIGN.md §9) over 60
# blocks of seeds, 18 000 bent chains: each run in one process takes the
# next block.
stress:
	$(GO) test -race -count=100 -run 'TestSessionPipelinesExchanges|TestSessionRedialsAfterServerRestart|TestCloseEndsAnIdleSessionAtOnce|TestCloseLetsAnInFlightStreamFinish' ./internal/core
	$(GO) test -race -count=100 -run 'TestSessionCutIn' ./internal/cluster
	$(GO) test -race -count=100 -run 'TestUnmappedIdentityRefused' ./internal/gram
	$(GO) test -race -count=100 -run 'TestUnmappedIdentityRefused|TestReusedConnectionOutlivesFirstDeadline' ./internal/mss
	$(GO) test -race -count=100 ./internal/gsi
	$(GO) test -count=60 -run 'TestChainMutator' ./internal/proxy

check: vet lint build race-hotpath race-failover fuzz-smoke stress race

# One-iteration smoke pass over the go-test benchmarks; the load benchmark
# is `go run ./bench` (BENCHMARK.json, bench-pairs below).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-pairs is how a performance claim on the bench/ benchmark is checked:
# ten alternating runs of one workload on PARENT (exported to a temp
# directory) and on this working tree, judged by scripts/bench-pairs.sh.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=mixed_file METRIC=lat_p99_ms
PARENT ?= HEAD
WORKLOAD ?= mixed_file
METRIC ?= lat_p99_ms
bench-pairs:
	sh scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(METRIC)

clean:
	$(GO) clean ./...
