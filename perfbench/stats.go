package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// tailPercentile returns the highest percentile p ≤ want (in whole or
// tenth percents) that has at least minBeyond of n samples beyond it,
// or 50 when even the median has fewer — so p99 needs n ≥ 1000, and a
// 500-sample run reports p98.
func tailPercentile(n int, want float64) float64 {
	for p := want; p > 50; p = math.Round((p-0.1)*10) / 10 {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencies accumulates per-request timings in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

func (l *latencies) merge(o *latencies) { l.ms = append(l.ms, o.ms...) }

// summary returns the median, the tail percentile actually reported and
// its value, over the samples.
func (l *latencies) summary(want float64) (p50, tailP, tail float64) {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	tailP = tailPercentile(len(s), want)
	return percentile(s, 50), tailP, percentile(s, tailP)
}

func mean(sum float64, n int) float64 { return ratio(sum, float64(n)) }

// ratio is a/b, or 0 when b is 0: a report never carries NaN or Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
