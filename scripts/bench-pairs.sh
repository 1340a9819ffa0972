#!/bin/sh
# bench-pairs.sh — paired parent/change runs of the repository benchmark,
# judged by the rule a performance claim has to meet (choosing-metrics §8):
# the change wins at least nine tenths of the pairs, ties counting for
# neither side, and the two medians differ by more than the distance
# between the quartiles of the parent's own runs.
#
# Usage:
#   scripts/bench-pairs.sh <parent-ref> <workload> <metric> [pairs [bench flags...]]
#
# The parent commit is exported (git archive) into a temp directory under
# ${TMPDIR:-/tmp}; the change is the working tree this script sits in. Each
# pair runs `go run ./bench -workload W -trace 0 -json` once per side with
# a fresh -out, alternating which side goes first. Every run of the claimed
# metric is printed, then for every end-to-end metric of BENCHMARK.json each
# side's median and quartiles, the pairs won, and a verdict: the §8 rule for
# <metric>, the BENCHMARK.json bound for the others ("unresolved" where the
# parent's own spread is wider than the bound). Trailing arguments go to the
# benchmark verbatim (-workers 2, -seed 7). Exits nonzero if the claim is
# not met, any other metric regressed, or either side failed more operations.
set -eu

if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-ref> <workload> <metric> [pairs [bench flags...]]" >&2
	exit 2
fi
ref="$1"
workload="$2"
metric="$3"
shift 3
pairs=10
if [ $# -gt 0 ]; then
	pairs="$1"
	shift
fi

cd "$(dirname "$0")/.."
change=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent"
git archive "$ref" | tar -x -C "$tmp/parent"

# "name better bound" per end-to-end metric; the file keeps one key per line.
awk '
/"end_to_end"/ { on = 1 }
on && /^  \]/ { on = 0 }
on && /"name"/ { name = $2; gsub(/[",]/, "", name) }
on && /"better"/ { better = $2; gsub(/[",]/, "", better) }
on && /"bound"/ { print name, better, $2 + 0 }
' BENCHMARK.json >"$tmp/metrics"
if ! grep -q "^$metric " "$tmp/metrics"; then
	echo "bench-pairs: $metric is not an end-to-end metric of BENCHMARK.json" >&2
	exit 2
fi

# run <side> <pair> [bench flags...]: one benchmark process; its result line
# becomes "<pair> <side> <metric> <value>" rows plus a failed/attempted row.
run() {
	side="$1"
	pair="$2"
	shift 2
	dir="$change"
	if [ "$side" = parent ]; then
		dir="$tmp/parent"
	fi
	rm -rf "$tmp/out"
	if ! (cd "$dir" && go run ./bench -workload "$workload" -trace 0 -json -out "$tmp/out" "$@") >"$tmp/line" 2>"$tmp/err"; then
		echo "bench-pairs: pair $pair, $side: the benchmark exited nonzero" >&2
		cat "$tmp/err" >&2
	fi
	while read -r name _ _; do
		v=$(sed -n 's/.*"'"$name"'":{"value":\([^,}]*\).*/\1/p' "$tmp/line")
		echo "$pair $side $name ${v:-nan}" >>"$tmp/rows"
	done <"$tmp/metrics"
	sed -n 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/'"$pair $side"' failed \2 \1/p' "$tmp/line" >>"$tmp/rows"
}

echo "bench-pairs: $workload, claim on $metric, parent $ref, $pairs pairs${*:+, bench flags: $*}"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		order="parent change"
	else
		order="change parent"
	fi
	for side in $order; do
		run "$side" "$i" "$@"
	done
	awk -v i="$i" -v m="$metric" -v order="$order" '
	$1 == i && $3 == m { v[$2] = $4 }
	END { printf "  pair %2d (%s first): parent %10.4f  change %10.4f\n", i, substr(order, 1, 6), v["parent"], v["change"] }
	' "$tmp/rows"
	i=$((i + 1))
done

awk -v claim="$metric" -v pairs="$pairs" '
function sorted(side, name, out,    n, i, j, t) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((i, side, name) in val) out[++n] = val[i, side, name]
	for (i = 2; i <= n; i++) {
		t = out[i]
		for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]
		out[j + 1] = t
	}
	return n
}
# quantile by linear interpolation between order statistics
function quant(a, n, q,    h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
NR == FNR { order[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
$3 == "failed" { failed[$2] += $4; attempted[$2] += $5; next }
{ val[$1, $2, $3] = $4 }
END {
	printf "\n%-16s %-7s %10s %10s %10s   %s\n", "metric", "side", "q1", "median", "q3", "pairs won"
	bad = 0
	for (k = 1; k <= nm; k++) {
		m = order[k]
		np = sorted("parent", m, p)
		nc = sorted("change", m, c)
		pm = quant(p, np, 0.5); cm = quant(c, nc, 0.5)
		iqr = quant(p, np, 0.75) - quant(p, np, 0.25)
		won = lost = 0
		for (i = 1; i <= pairs; i++) {
			d = val[i, "change", m] - val[i, "parent", m]
			if (better[m] == "higher") d = -d
			if (d < 0) won++; else if (d > 0) lost++
		}
		gain = (better[m] == "higher") ? cm - pm : pm - cm   # > 0: change better
		if (m == claim) {
			if (won >= 0.9 * pairs && gain > iqr) verdict = "CLAIM MET"
			else { verdict = "CLAIM NOT MET"; bad = 1 }
			verdict = verdict sprintf(" (needs >= %d of %d pairs and a median gain over the parent IQR %.4g; gain %.4g)", int(0.9 * pairs + 0.999), pairs, iqr, gain)
		} else if (-gain > bound[m] * pm) {
			verdict = sprintf("REGRESSION (worse by %.1f%%, bound %.0f%%)", -100 * gain / pm, 100 * bound[m]); bad = 1
		} else if (iqr > bound[m] * pm) {
			verdict = sprintf("unresolved (parent IQR %.1f%% of its median, bound %.0f%%)", 100 * iqr / pm, 100 * bound[m])
		} else {
			verdict = sprintf("%s (median %+.1f%%, bound %.0f%%)", gain > 0 ? "better" : "within bound", 100 * (cm - pm) / pm, 100 * bound[m])
		}
		printf "%-16s %-7s %10.4f %10.4f %10.4f\n", m, "parent", quant(p, np, 0.25), pm, quant(p, np, 0.75)
		printf "%-16s %-7s %10.4f %10.4f %10.4f   %d of %d (%d lost)  %s\n", "", "change", quant(c, nc, 0.25), cm, quant(c, nc, 0.75), won, pairs, lost, verdict
	}
	printf "\nfailed operations: parent %d of %d, change %d of %d\n", failed["parent"], attempted["parent"], failed["change"], attempted["change"]
	if (attempted["change"] == 0 || attempted["parent"] == 0 || failed["change"] / attempted["change"] > failed["parent"] / attempted["parent"]) {
		print "the change fails a larger share of operations (or a side produced no result)"
		bad = 1
	}
	exit bad
}
' "$tmp/metrics" "$tmp/rows"
