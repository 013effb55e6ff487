package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p % of the sample
// at or below it. Nearest rank never interpolates, so a reported
// percentile is always a latency that was actually observed.
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

// median returns the middle of vs (mean of the two middles for an even
// count). It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one timed operation: when it was due, relative to the start
// of its phase, and how long it took, both in nanoseconds.
type sample struct {
	dueNS int64
	latNS int64
}

// windowStat is one window's percentiles, in microseconds.
type windowStat struct {
	n        int
	p50, p99 float64
}

// windowed groups samples into consecutive windows of widthNS by due
// time and returns each full window's p50 and p99. The trailing partial
// window is dropped so every window covers the same span of offered
// load. A pooled p99 over a whole run is set by the one or two worst
// stalls of the run and swung 50-fold between identical runs; a window's
// p99 sees a stall only in its own window, and the median over windows
// (medianOf) is the run's estimate.
func windowed(samples []sample, widthNS int64, windows int) []windowStat {
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int(s.dueNS / widthNS)
		if s.dueNS < 0 || w >= windows {
			continue
		}
		buckets[w] = append(buckets[w], float64(s.latNS)/1e3)
	}
	out := make([]windowStat, 0, windows)
	for _, b := range buckets {
		sort.Float64s(b)
		out = append(out, windowStat{n: len(b), p50: percentile(b, 50), p99: percentile(b, 99)})
	}
	return out
}

// medianOf reduces window statistics to the run's p50 and p99 estimates
// and the smallest window population.
func medianOf(ws []windowStat) (p50, p99 float64, minN int) {
	if len(ws) == 0 {
		return 0, 0, 0
	}
	a := make([]float64, len(ws))
	b := make([]float64, len(ws))
	minN = ws[0].n
	for i, w := range ws {
		a[i], b[i] = w.p50, w.p99
		if w.n < minN {
			minN = w.n
		}
	}
	return median(a), median(b), minN
}

// quartiles returns Q1, Q2, Q3 of vs by the method of Python's
// statistics.quantiles(vs, n=4) (exclusive), which is what the driver
// uses for the A/A spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
