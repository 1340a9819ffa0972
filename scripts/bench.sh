#!/bin/sh
# bench.sh — run the reproduction benchmarks with -benchmem and emit a
# machine-readable BENCH_<n>.json trajectory point in the repository root.
#
# Two benchmark classes run with different -benchtime:
#
#   * deployment benchmarks (Fig. 1/2/3, scalability, renewal)
#     run a fixed 100 iterations so the warm keypair pool (see
#     bench_test.go benchKeyPool and DESIGN.md §9) covers the whole timed
#     region — these measure hot-path request latency;
#   * micro benchmarks (chain verify, proxy mint, KDF, wire substrate)
#     run time-based for tight confidence intervals.
#
# Usage:
#   scripts/bench.sh [-out FILE] [-baseline RAWFILE] [-label TEXT]
#
#   -out FILE       write JSON here (default: next free BENCH_<n>.json)
#   -baseline FILE  embed a previously captured raw `go test -bench`
#                   output as the "baseline" section, for before/after
#                   points like BENCH_1.json
#   -label TEXT     label for the embedded baseline (default "baseline")
#
# The raw benchmark output is kept next to the JSON as <out>.txt.
set -eu

cd "$(dirname "$0")/.."

DEPLOY_BENCH='BenchmarkFig1Init|BenchmarkFig2GetDelegation|BenchmarkFig2Algorithms|BenchmarkFig2Multiplexed|BenchmarkFig3PortalFlow|BenchmarkScalabilityPortalsPerRepo|BenchmarkScalabilityReposPerPortal|BenchmarkRenewal'
MICRO_BENCH='BenchmarkDelegationChain|BenchmarkProxyCreate|BenchmarkRestrictedVerify|BenchmarkOTPVerify|BenchmarkWireDelegation|BenchmarkChannelEstablish|BenchmarkCredstoreSealUnseal|BenchmarkKDF'
DEPLOY_TIME='100x'
MICRO_TIME='2s'

out=''
baseline=''
label='baseline'
while [ $# -gt 0 ]; do
	case "$1" in
	-out) out="$2"; shift 2 ;;
	-baseline) baseline="$2"; shift 2 ;;
	-label) label="$2"; shift 2 ;;
	*) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [ -z "$out" ]; then
	n=1
	while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
	out="BENCH_${n}.json"
fi

raw="${out%.json}.txt"
: >"$raw"

echo "== deployment benchmarks (-benchtime $DEPLOY_TIME)" >&2
go test -run '^$' -bench "$DEPLOY_BENCH" -benchtime "$DEPLOY_TIME" -benchmem . | tee -a "$raw"
echo "== micro benchmarks (-benchtime $MICRO_TIME)" >&2
go test -run '^$' -bench "$MICRO_BENCH" -benchtime "$MICRO_TIME" -benchmem . | tee -a "$raw"

# results_json FILE — parse `go test -bench` raw output into a JSON array
# of {name, iterations, ns_op, bytes_op, allocs_op}.
results_json() {
	awk '
	/^Benchmark/ {
		name = $1; iters = $2; ns = ""
		bytes = "null"; allocs = "null"
		for (i = 3; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			if ($i == "B/op") bytes = $(i - 1)
			if ($i == "allocs/op") allocs = $(i - 1)
		}
		if (ns == "") next
		if (n++) printf ",\n"
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s}", \
			name, iters, ns, bytes, allocs
	}
	END { if (n) printf "\n" }
	' "$1"
}

cpu=$(awk '/^cpu:/ { sub(/^cpu: /, ""); print; exit }' "$raw")

{
	echo '{'
	echo '  "schema": "myproxy-bench-v1",'
	echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
	echo "  \"go\": \"$(go version | sed 's/^go version //')\","
	echo "  \"cpu\": \"${cpu}\","
	echo "  \"benchtime\": {\"deployment\": \"${DEPLOY_TIME}\", \"micro\": \"${MICRO_TIME}\"},"
	if [ -n "$baseline" ]; then
		echo "  \"baseline_label\": \"${label}\","
		echo '  "baseline": ['
		results_json "$baseline"
		echo '  ],'
	fi
	echo '  "results": ['
	results_json "$raw"
	echo '  ]'
	echo '}'
} >"$out"

echo "wrote $out (raw output in $raw)" >&2
