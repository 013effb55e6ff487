package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent / refQueue reimplement the engine's original event queue — a
// container/heap over *event pointers ordered by (time, sequence) —
// verbatim. It is the ordering specification the radix queue must agree
// with: events pop in time order, ties in scheduling order.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refQueue) Push(x any) { *q = append(*q, x.(*refEvent)) }

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// atRingEnd marks a drawn delay as an offset from the ring's far end —
// atRingEnd-1, atRingEnd or atRingEnd+1 — resolved by ringEdge when the
// event is scheduled, since the end moves with the clock.
const atRingEnd = -time.Hour

// ringSpan is how far the ring reaches past its first slot.
const ringSpan = ringSlots << slotShift

// ringEdge resolves a delay drawn relative to the ring's end into one
// relative to now; other delays pass through.
func ringEdge(d, now time.Duration) time.Duration {
	if d >= 0 {
		return d
	}
	end := (now>>slotShift + ringSlots) << slotShift
	return end - now + (d - atRingEnd)
}

// propDelay draws a delay from the mix the simulator sees: ties, packet
// hops, protocol timers and idle timeouts hours out, so events sit in
// the ring and in low, middle and high radix buckets at once — plus
// delays at the ring's edge (one slot short of, at and past its end) and
// in the 1–5 ms band that migrates from the far tier into the ring.
func propDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Intn(8)) * time.Nanosecond
	case 2:
		return time.Duration(rng.Intn(1000)) * time.Microsecond
	case 3:
		return time.Duration(rng.Intn(50)) * time.Millisecond
	case 4:
		return atRingEnd + time.Duration(rng.Intn(3)-1)
	case 5:
		return ringSpan + time.Duration(rng.Intn(3)-1)
	case 6:
		return time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
	default:
		return time.Duration(1+rng.Intn(3)) * time.Hour
	}
}

// propBurst draws delays that land in one slot out of time order: a
// descending run with ties, so insertion from the back and FIFO ties are
// both exercised.
func propBurst(rng *rand.Rand) []time.Duration {
	base := time.Duration(rng.Intn(6)) * time.Millisecond
	if rng.Intn(2) == 0 {
		base = ringSpan
	}
	out := make([]time.Duration, 3+rng.Intn(6))
	for i := range out {
		out[i] = base + time.Duration(rng.Intn(4)*100)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// propHorizon draws how far a Run goes: a propDelay, or a point inside
// the current or the next slot.
func propHorizon(rng *rand.Rand) time.Duration {
	if rng.Intn(3) == 0 {
		return time.Duration(rng.Intn(2 << slotShift))
	}
	return ringEdge(propDelay(rng), 0)
}

// refSim is the oracle's whole simulation: the reference queue plus the
// clock and Run/RunAll loops of the engine, driven by the same scripted
// decisions (a pre-drawn list of delays each event schedules when it
// fires) so that both sides make identical scheduling calls.
type refSim struct {
	now   time.Duration
	seq   uint64
	q     refQueue
	fired []int
}

func (r *refSim) schedule(delay time.Duration, id int) {
	r.seq++
	heap.Push(&r.q, &refEvent{at: r.now + ringEdge(delay, r.now), seq: r.seq, id: id})
}

// TestPropertyQueueMatchesContainerHeap drives the engine through its
// public API only — Schedule from outside and from callbacks, Run to
// near and far horizons (some inside a slot) with more scheduling in
// between, then RunAll — and requires the firing order, the clock after
// every Run and the pending count to equal those of the container/heap
// (time, sequence) oracle.
func TestPropertyQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// children[id] is what event id schedules when it fires; ids are
		// handed out in scheduling order on both sides.
		const maxEvents = 400
		children := make([][]time.Duration, maxEvents)
		for i := range children {
			switch rng.Intn(8) {
			case 0, 1:
			case 2:
				children[i] = propBurst(rng)
			default:
				for n := rng.Intn(3); n >= 0; n-- {
					children[i] = append(children[i], propDelay(rng))
				}
			}
		}

		e := NewEngine(1)
		ref := &refSim{}
		var got []int
		nextID, refNextID := 0, 0

		var schedule func(delay time.Duration)
		schedule = func(delay time.Duration) {
			if nextID >= maxEvents {
				return
			}
			id := nextID
			nextID++
			e.Schedule(ringEdge(delay, e.Now()), func() {
				got = append(got, id)
				for _, d := range children[id] {
					schedule(d)
				}
			})
		}
		refSchedule := func(delay time.Duration) {
			if refNextID >= maxEvents {
				return
			}
			ref.schedule(delay, refNextID)
			refNextID++
		}
		refFire := func() {
			ev := heap.Pop(&ref.q).(*refEvent)
			ref.now = ev.at
			ref.fired = append(ref.fired, ev.id)
			for _, d := range children[ev.id] {
				refSchedule(d)
			}
		}

		for round := 0; round < 12; round++ {
			for n := rng.Intn(6); n > 0; n-- {
				d := propDelay(rng)
				schedule(d)
				refSchedule(d)
			}
			if rng.Intn(4) == 0 {
				for _, d := range propBurst(rng) {
					schedule(d)
					refSchedule(d)
				}
			}
			horizon := e.Now() + propHorizon(rng)
			if err := e.Run(horizon); err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
			}
			for len(ref.q) > 0 && ref.q[0].at <= horizon {
				refFire()
			}
			if ref.now < horizon {
				ref.now = horizon
			}
			if e.Now() != ref.now || e.Pending() != len(ref.q) {
				t.Fatalf("seed %d round %d: Now %v Pending %d, oracle %v %d",
					seed, round, e.Now(), e.Pending(), ref.now, len(ref.q))
			}
		}
		if err := e.RunAll(1 << 20); err != nil {
			t.Fatalf("seed %d: RunAll: %v", seed, err)
		}
		for len(ref.q) > 0 {
			refFire()
		}
		if e.Now() != ref.now || e.Pending() != 0 {
			t.Fatalf("seed %d: drained at %v with %d pending, oracle %v", seed, e.Now(), e.Pending(), ref.now)
		}
		if len(got) != len(ref.fired) {
			t.Fatalf("seed %d: fired %d events, oracle %d", seed, len(got), len(ref.fired))
		}
		for i := range got {
			if got[i] != ref.fired[i] {
				t.Fatalf("seed %d: firing order diverges at %d: got %v, oracle %v",
					seed, i, got[i:min(i+8, len(got))], ref.fired[i:min(i+8, len(got))])
			}
		}
	}
}

// TestScheduleBetweenHorizonAndNextEvent pins that Run peeks and does not
// commit: with the only event beyond the horizon, the queue's reference
// time must stay behind the clock, so events scheduled afterwards that
// lie before the waiting one are accepted and fire first.
func TestScheduleBetweenHorizonAndNextEvent(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(5*time.Second, func() { got = append(got, 5) })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || e.Now() != time.Second {
		t.Fatalf("after Run(1s): fired %v, Now %v", got, e.Now())
	}
	e.Schedule(time.Second, func() { got = append(got, 2) })
	e.Schedule(2*time.Second, func() { got = append(got, 3) })
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("fired %v, want [2 3 5]", got)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", e.Now())
	}
}
