package obs

import "time"

// DefaultLatencyBuckets is the fixed bucket layout for flow-setup
// latencies: 100µs to 5s in a coarse log scale, in seconds. The layout
// spans both simulated setups (sub-millisecond virtual latencies) and
// livesecd wall-clock setups (milliseconds once the event loop's 5ms
// pump granularity shows up).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a fixed-bucket distribution. Buckets are defined by
// ascending upper bounds (seconds); samples above the last bound land in
// the implicit +Inf bucket. Observing is a bounded linear scan over a
// preallocated count array — no allocation, no branching on sample
// history — which beats a binary search at the 16-bucket sizes used
// here.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample (in seconds).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// ObserveDuration records a virtual-time sample.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total }

// CountAtOrBelow returns the cumulative count of samples that landed in
// buckets whose upper bound is <= le. le should be one of the registered
// bounds; a value between bounds counts only the buckets fully at or
// below it.
func (h *Histogram) CountAtOrBelow(le float64) uint64 {
	var cum uint64
	for i, b := range h.bounds {
		if b > le {
			break
		}
		cum += h.counts[i]
	}
	return cum
}
