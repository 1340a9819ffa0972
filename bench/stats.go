package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than ten samples
// beyond it: such a value is one or two outliers, not a tail.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < tailSamples {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, n, tailSamples)
	}
	return sorted[rank-1], nil
}

// tail returns the p-th percentile of sorted or, when the sample does not
// support it, the highest percentile that still has ten samples beyond it
// (the maximum for a sample of ten or fewer) together with a note saying
// so. An empty sample gives 0.
func tail(sorted []float64, p float64) (float64, string) {
	if v, err := percentile(sorted, p); err == nil {
		return v, ""
	}
	n := len(sorted)
	if n == 0 {
		return 0, "no samples"
	}
	rank := n - tailSamples
	if rank < 1 {
		rank = n
	}
	return sorted[rank-1], fmt.Sprintf("p%g unsupported by %d samples; reporting p%.1f", p, n, 100*float64(rank)/float64(n))
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 (a share of nothing is reported as 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
