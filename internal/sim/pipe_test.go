package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestPipeMatchesClosurePerValue runs one script twice — once sending
// values through a Pipe, once scheduling a closure per value — with
// plain Schedule calls interleaved at equal timestamps, from outside and
// from callbacks. Both engines must fire everything in the same order.
func TestPipeMatchesClosurePerValue(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		run := func(usePipe bool) []int {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine(1)
			var got []int
			record := func(v int) { got = append(got, v) }
			pipe := NewPipe(e, record)
			// busy mimics a transmitter: it only moves forward.
			var busy time.Duration
			send := func(v int) {
				if busy < e.Now() {
					busy = e.Now()
				}
				busy += time.Duration(rng.Intn(3)) * time.Microsecond
				if usePipe {
					pipe.At(busy, v)
				} else {
					at := busy
					e.At(at, func() { record(v) })
				}
			}
			next := 0
			var step func()
			step = func() {
				if next >= 400 {
					return
				}
				for n := rng.Intn(4); n > 0; n-- {
					next++
					v := next
					if rng.Intn(2) == 0 {
						send(v)
					} else {
						// A plain event, often at a time the pipe also holds.
						e.Schedule(time.Duration(rng.Intn(3))*time.Microsecond, func() { record(-v) })
					}
				}
				e.Schedule(time.Duration(rng.Intn(3))*time.Microsecond, step)
			}
			step()
			if err := e.RunAll(1 << 20); err != nil {
				t.Fatal(err)
			}
			return got
		}
		want, got := run(false), run(true)
		if len(got) != len(want) || len(got) < 200 {
			t.Fatalf("seed %d: pipe fired %d, closures %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverges at %d: pipe %d, closure %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestPipeOrderAcrossGrowthAndWrap fills the ring past several doublings
// while its head sits mid-ring, so growth has to unwrap, then keeps it
// cycling so indices wrap many times.
func TestPipeOrderAcrossGrowthAndWrap(t *testing.T) {
	e := NewEngine(1)
	var got []int
	p := NewPipe(e, func(v int) { got = append(got, v) })
	next := 0
	push := func(n int) {
		for ; n > 0; n-- {
			p.At(e.Now()+time.Duration(next)*time.Nanosecond, next)
			next++
		}
	}
	drain := func(n int) {
		for ; n > 0; n-- {
			_ = e.RunAll(1) // one event; the budget error is the point
		}
	}
	push(5)
	drain(3)                    // head at 3 of 8
	push(20)                    // grows 8 → 16 → 32 with a wrapped ring
	drain(10)                   // head mid-ring again
	push(100)                   // 32 → 128
	for i := 0; i < 1000; i++ { // steady cycling wraps the indices
		push(3)
		drain(3)
	}
	if err := e.RunAll(1 << 20); err != nil {
		t.Fatal(err)
	}
	if len(got) != next {
		t.Fatalf("delivered %d of %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("value %d delivered at position %d", v, i)
		}
	}
	if len(p.ring) != 128 {
		t.Fatalf("ring length %d, want 128 (in flight peaked at 112)", len(p.ring))
	}
}

func TestPipeSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; AllocsPerRun is meaningless here")
	}
	e := NewEngine(1)
	type item struct {
		p    *int
		size int
	}
	n := 0
	p := NewPipe(e, func(v item) { n += v.size })
	x := new(int)
	cycle := func() {
		for i := 0; i < 4; i++ {
			p.At(e.Now()+time.Microsecond, item{x, 1})
		}
		if err := e.Run(e.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // size the ring and the engine's buckets
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("pipe send/deliver allocs per cycle = %v, want 0", allocs)
	}
	if n != 4*1002 {
		t.Fatalf("delivered %d, want %d", n, 4*1002)
	}
}

func TestPipePanicsOnDecreasingTime(t *testing.T) {
	e := NewEngine(1)
	p := NewPipe(e, func(int) {})
	p.At(2*time.Microsecond, 1)
	p.At(2*time.Microsecond, 2) // equal is fine
	defer func() {
		if recover() == nil {
			t.Fatal("At with a decreasing time did not panic")
		}
	}()
	p.At(time.Microsecond, 3)
}
