#!/bin/sh
# bench.sh — run the reproduction benchmarks with -benchmem and the load
# benchmark's four workloads, and emit a machine-readable BENCH_<n>.json
# trajectory point in the repository root.
#
# Two Go-benchmark classes run with different -benchtime:
#
#   * deployment benchmarks (Fig. 1/2/3, scalability, renewal)
#     run a fixed 100 iterations so the warm keypair pool (see
#     bench_test.go benchKeyPool and DESIGN.md §9) covers the whole timed
#     region — these measure hot-path request latency;
#   * micro benchmarks (chain verify, proxy mint, KDF, wire substrate)
#     run time-based for tight confidence intervals.
#
# Then ./bench is built once and each workload of BENCHMARK.json runs ten
# times with `-trace 0 -json`; for every metric its median and quartiles
# (linear interpolation, as scripts/bench-pairs.sh computes them) and the
# failed/attempted totals go under "workloads".
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
WORKLOADS='get_exchange get_session mixed_file cluster_rf2'
RUNS=10

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

# Each load-benchmark result line is kept in the raw file as
# "workload <name> <run> <json>", which the Benchmark parser skips.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bench" ./bench
for w in $WORKLOADS; do
	echo "== load benchmark $w ($RUNS runs, -trace 0)" >&2
	i=1
	while [ "$i" -le "$RUNS" ]; do
		rm -rf "$tmp/out"
		line=$("$tmp/bench" -workload "$w" -trace 0 -json -out "$tmp/out" | tail -n 1)
		echo "workload $w $i $line" | tee -a "$raw"
		i=$((i + 1))
	done
done

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

# workloads_json FILE — the "workload" lines of FILE as a JSON array of
# {name, runs, attempted, failed, metrics: {m: {median, q1, q3, unit}}}.
workloads_json() {
	sed -n 's/^workload \([a-z0-9_]*\) [0-9]* .*"attempted":\([0-9]*\),"failed":\([0-9]*\),"metrics":{\(.*\)}}$/\1 \2 \3 \4/p' "$1" |
		awk '
	function quant(a, n, q,    h, lo) {
		h = (n - 1) * q + 1
		lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	{
		w = $1
		if (!(w in runs)) order[++nw] = w
		runs[w]++; attempted[w] += $2; failed[w] += $3
		rest = $4
		for (k = 5; k <= NF; k++) rest = rest " " $k
		n = split(rest, parts, /},/)
		for (j = 1; j <= n; j++) {
			if (!match(parts[j], /"[a-z0-9_]+":/)) continue
			m = substr(parts[j], RSTART + 1, RLENGTH - 3)
			if (!((w, m) in seen)) { seen[w, m] = 1; names[w, ++nm[w]] = m }
			v = parts[j]; sub(/.*"value":/, "", v); sub(/,.*/, "", v)
			u = parts[j]; sub(/.*"unit":"/, "", u); sub(/".*/, "", u)
			val[w, m, runs[w]] = v + 0; unit[w, m] = u
		}
	}
	END {
		for (a = 1; a <= nw; a++) {
			w = order[a]
			printf "    {\"name\": \"%s\", \"runs\": %d, \"attempted\": %d, \"failed\": %d, \"metrics\": {", w, runs[w], attempted[w], failed[w]
			for (b = 1; b <= nm[w]; b++) {
				m = names[w, b]
				n = 0
				for (i = 1; i <= runs[w]; i++) if ((w, m, i) in val) s[++n] = val[w, m, i]
				for (i = 2; i <= n; i++) {
					t = s[i]
					for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
					s[j + 1] = t
				}
				printf "%s\n      \"%s\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"unit\": \"%s\"}", (b > 1 ? "," : ""), m, quant(s, n, 0.5), quant(s, n, 0.25), quant(s, n, 0.75), unit[w, m]
			}
			printf "\n    }}%s\n", (a < nw ? "," : "")
		}
	}
	'
}

cpu=$(awk '/^cpu:/ { sub(/^cpu: /, ""); print; exit }' "$raw")

{
	echo '{'
	echo '  "schema": "myproxy-bench-v1",'
	echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
	echo "  \"go\": \"$(go version | sed 's/^go version //')\","
	echo "  \"cpu\": \"${cpu}\","
	echo "  \"benchtime\": {\"deployment\": \"${DEPLOY_TIME}\", \"micro\": \"${MICRO_TIME}\", \"workload_runs\": ${RUNS}},"
	if [ -n "$baseline" ]; then
		echo "  \"baseline_label\": \"${label}\","
		echo '  "baseline": ['
		results_json "$baseline"
		echo '  ],'
	fi
	echo '  "results": ['
	results_json "$raw"
	echo '  ],'
	echo '  "workloads": ['
	workloads_json "$raw"
	echo '  ]'
	echo '}'
} >"$out"

echo "wrote $out (raw output in $raw)" >&2
