package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// the nearest-rank rule: the smallest value with at least q·n samples at or
// below it. An empty sample yields 0.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile is the choosing-metrics rule for the reported tail: the
// highest of p50/p90/p99/p99.9 that still has at least ten samples beyond
// it, so that the tail is a measurement and not one outlier. Fewer than
// twenty samples resolve nothing above the median.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if beyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quiet is the statistic a run reports over its parts (trend groups, latency
// windows): their lower quartile by the nearest-rank rule — the lowest of up
// to four parts, the second lowest of five to eight. The machine is shared:
// a neighbour's load only ever adds time, for seconds at a stretch, so the
// parts it fell into are the slow ones and the median of the parts still
// moves with how many it hit. A change to the program moves every part, the
// quiet ones too.
func quiet(v []float64) float64 { return percentile(sorted(v), 0.25) }

// quartiles returns the first and third quartile by the rule Python's
// statistics.quantiles(v, n=4) uses (the "exclusive" method), which is what
// the acceptance spread is defined with. Fewer than two samples have no
// spread: both quartiles are the sample itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4) // after clamping, so the ends extrapolate
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
