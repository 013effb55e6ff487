package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-timestamp events reordered: %v", got)
		}
	}
}

func TestHorizonStopsButKeepsQueue(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(5*time.Millisecond, func() { ran++ })
	e.Schedule(50*time.Millisecond, func() { ran++ })
	if err := e.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// Continuing past the old horizon runs the remaining event.
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(10*time.Millisecond, func() { ran = true })
	if err := e.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event exactly at horizon did not run")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("negative-delay event did not run at t=0")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++; e.Stop() })
	e.Schedule(2*time.Millisecond, func() { ran++ })
	if err := e.Run(time.Second); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// TestStopSameTimestampAtHorizon pins the documented Stop contract: the
// in-flight event completes, later events at the same timestamp (even at
// the horizon boundary) stay queued, Now() is not advanced to the
// horizon, and ErrStopped is returned.
func TestStopSameTimestampAtHorizon(t *testing.T) {
	e := NewEngine(1)
	const at = 5 * time.Millisecond
	var ran []string
	e.At(at, func() { ran = append(ran, "first"); e.Stop() })
	e.At(at, func() { ran = append(ran, "second") })
	if err := e.Run(at); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if got := strings.Join(ran, ","); got != "first" {
		t.Fatalf("ran = %q, want only the stopping event", got)
	}
	if e.Now() != at {
		t.Fatalf("Now = %v, want the stopping event's time %v", e.Now(), at)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the same-timestamp event still queued", e.Pending())
	}
	// The queued event runs on the next Run call.
	if err := e.Run(at); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != "first,second" {
		t.Fatalf("after resume ran = %q", got)
	}
}

// TestStopOnLastEvent covers the historic inconsistency: a Stop issued
// by the final queued event used to fall out of the drained loop and
// return nil instead of ErrStopped — from Run and RunAll both.
func TestStopOnLastEvent(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Millisecond, func() { e.Stop() })
	if err := e.Run(time.Second); err != ErrStopped {
		t.Fatalf("Run err = %v, want ErrStopped", err)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("Now = %v, want 1ms (not advanced to horizon)", e.Now())
	}

	e2 := NewEngine(1)
	e2.Schedule(time.Millisecond, func() { e2.Stop() })
	if err := e2.RunAll(100); err != ErrStopped {
		t.Fatalf("RunAll err = %v, want ErrStopped", err)
	}
}

// TestStopBeyondHorizonNextEvent: Stop fires while the next event lies
// beyond the horizon; the old loop broke out and returned nil.
func TestStopBeyondHorizonNextEvent(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Millisecond, func() { e.Stop() })
	e.Schedule(time.Hour, func() {})
	if err := e.Run(time.Second); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestIdleStopIsNoOp: Stop while the engine is idle must not poison the
// next Run call.
func TestIdleStopIsNoOp(t *testing.T) {
	e := NewEngine(1)
	e.Stop()
	ran := false
	e.Schedule(time.Millisecond, func() { ran = true })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run after idle Stop")
	}
}

func TestRunAllBudget(t *testing.T) {
	e := NewEngine(1)
	var loop func()
	loop = func() { e.Schedule(time.Millisecond, loop) }
	e.Schedule(0, loop)
	if err := e.RunAll(100); err == nil {
		t.Fatal("expected budget-exhausted error")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	cancel := e.Ticker(10*time.Millisecond, func() { ticks++ })
	e.Schedule(55*time.Millisecond, cancel)
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

// A zero or negative Ticker period is clamped to the documented
// MinTickerPeriod (it used to clamp to 1ns, which detonated event
// budgets: one stray zero-period ticker enqueued a billion events per
// simulated second).
func TestTickerZeroPeriodClampedToMinimum(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	cancel := e.Ticker(0, func() { ticks++ })
	defer cancel()
	if err := e.Run(10 * MinTickerPeriod); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("zero-period ticks in 10×min = %d, want 10", ticks)
	}
}

func TestTickerNegativePeriodClampedToMinimum(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	cancel := e.Ticker(-time.Second, func() { ticks++ })
	defer cancel()
	if err := e.Run(3 * MinTickerPeriod); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Fatalf("negative-period ticks in 3×min = %d, want 3", ticks)
	}
}

// Positive sub-millisecond periods are a supported use (packet-rate
// tickers) and must not be clamped.
func TestTickerSubMillisecondPeriodHonored(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	cancel := e.Ticker(100*time.Microsecond, func() { ticks++ })
	defer cancel()
	if err := e.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("100µs ticks in 1ms = %d, want 10", ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var samples []int64
		e.Ticker(time.Millisecond, func() {
			samples = append(samples, e.Rand().Int63n(1000))
		})
		e.Schedule(20*time.Millisecond+time.Nanosecond, e.Stop)
		_ = e.Run(time.Second)
		return samples
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sample lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run with same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: no matter what order delays are scheduled in, events fire in
// nondecreasing time order.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fired []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Microsecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(time.Hour); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDepthHighWatermark(t *testing.T) {
	e := NewEngine(1)
	if e.MaxDepth() != 0 {
		t.Fatalf("fresh engine max depth = %d", e.MaxDepth())
	}
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if e.MaxDepth() != 5 {
		t.Fatalf("max depth = %d, want 5", e.MaxDepth())
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Draining the queue must not lower the high-watermark.
	if e.Pending() != 0 || e.MaxDepth() != 5 {
		t.Fatalf("after run: pending=%d maxDepth=%d, want 0/5", e.Pending(), e.MaxDepth())
	}
}
