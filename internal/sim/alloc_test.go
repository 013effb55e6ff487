package sim

import (
	"testing"
	"time"
)

// Steady-state scheduling is the simulator's innermost loop: every
// packet transmission, propagation, and timer goes through one
// Schedule/pop cycle. With events held by value in the bucket slices,
// a balanced push/pop workload must not allocate at all — the slices'
// retained capacity is the free list.
func TestSchedulePopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := NewEngine(1)
	fn := func() {}
	// Warm up: grow the bucket slices to their working capacity.
	for i := 0; i < 256; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if err := e.Run(e.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Microsecond, fn)
		if err := e.Run(e.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Schedule/pop allocs per cycle = %v, want 0", allocs)
	}
}

// A deep queue must also cycle without allocating: redistribution moves
// values between buckets whose capacity is retained. Every event that
// fires schedules its successor, so the queue stays 4096 deep while time
// advances through many redistributions.
func TestDeepQueuePopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := NewEngine(1)
	var fn func()
	fn = func() { e.Schedule(61*time.Microsecond, fn) }
	for i := 0; i < 4096; i++ {
		e.Schedule(time.Duration(i%61)*time.Microsecond, fn)
	}
	// Warm up: one full rotation sizes every bucket the pattern uses.
	if err := e.Run(e.Now() + 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := e.Run(e.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("deep-queue cycle allocs = %v, want 0", allocs)
	}
	if e.Pending() != 4096 {
		t.Fatalf("Pending = %d, want 4096", e.Pending())
	}
}

// TestSameTimestampBacklogStaysBounded: events that keep rescheduling at
// the current instant never let the ring's first slot drain; its storage
// must follow the live events, not every event the instant has seen.
func TestSameTimestampBacklogStaysBounded(t *testing.T) {
	e := NewEngine(1)
	left := 100_000
	var ping func()
	ping = func() {
		if left--; left > 0 {
			e.Schedule(0, ping)
		}
	}
	e.Schedule(0, ping)
	e.Schedule(0, ping)
	if err := e.RunAll(1 << 20); err != nil {
		t.Fatal(err)
	}
	if c := cap(e.slots[e.cur&ringMask]); c > 4*slideAfter {
		t.Fatalf("the first slot grew to %d entries for 2 live events", c)
	}
}
