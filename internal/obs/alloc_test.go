package obs

import (
	"testing"
	"time"
)

// The increment paths run once per simulated event; any allocation
// there would dominate profiles and perturb the alloc-sensitive
// benchmarks. Handles are resolved at registration, so the hot path is
// a field bump (or a bounded scan for histograms).

func TestCounterIncZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	c := NewRegistry().Counter("livesec_alloc_total", "")
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
	}); allocs != 0 {
		t.Fatalf("counter inc allocs/op = %v, want 0", allocs)
	}
}

func TestGaugeSetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	g := NewRegistry().Gauge("livesec_alloc_depth", "")
	if allocs := testing.AllocsPerRun(200, func() {
		g.Set(4)
		g.Add(-1)
	}); allocs != 0 {
		t.Fatalf("gauge set allocs/op = %v, want 0", allocs)
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	h := NewRegistry().Histogram("livesec_alloc_seconds", "", nil)
	if allocs := testing.AllocsPerRun(200, func() {
		h.Observe(0.0042)
		h.ObserveDuration(3 * time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("histogram observe allocs/op = %v, want 0", allocs)
	}
}

func TestSpanRecordZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	fo := NewFlowObs(64)
	// Warm the pool: the first span allocates once, then recycles.
	fo.FinishSpan(fo.StartSpan(0), time.Millisecond)
	var now time.Duration
	if allocs := testing.AllocsPerRun(200, func() {
		sp := fo.StartSpan(now)
		sp.MarkPlan(true)
		sp.AddElement(1)
		sp.SetOutcome(OutcomeRouted)
		now += 2 * time.Millisecond
		fo.FinishSpan(sp, now)
	}); allocs != 0 {
		t.Fatalf("span record allocs/op = %v, want 0", allocs)
	}
}
