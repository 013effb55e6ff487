// Package sim provides a deterministic discrete-event simulation engine.
//
// All LiveSec data-plane behaviour (packet transmission, queuing,
// propagation, service-element processing) is scheduled on a virtual clock
// owned by an Engine. Events fire in (time, sequence) order, so a run with
// a fixed seed is fully reproducible.
package sim

import (
	"errors"
	"math/bits"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run variants when the engine was stopped
// explicitly before the requested horizon.
var ErrStopped = errors.New("sim: engine stopped")

// MinTickerPeriod is the smallest period Ticker accepts. A zero or
// negative period is clamped to this documented minimum instead of the
// historic 1ns, which would detonate any event budget (a single
// mis-sized Ticker used to enqueue a billion events per simulated
// second).
const MinTickerPeriod = time.Millisecond

// event is a scheduled callback. The callback runs at the event's virtual
// time; it may schedule further events. Events are stored by value inside
// the engine's bucket slices, so scheduling one does not allocate.
type event struct {
	at time.Duration
	fn func()
}

// numBuckets is one bucket per possible position of the highest bit in
// which an event's time differs from the queue's reference time, plus
// bucket 0 for "no difference". Virtual time is a non-negative int64, so
// the difference has at most 63 significant bits.
const numBuckets = 64

// Engine is a discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; all components of one simulation must
// interact with it from event callbacks (or before Run is called).
//
// The pending-event queue is a monotone radix queue (Ahuja, Mehlhorn,
// Orlin, Tarjan). Virtual time never runs backwards — At clamps to now —
// so the queue only has to order events that lie at or after the time it
// last delivered, and a general-purpose heap's compares are wasted work.
// An event at time t lives in bucket bits.Len64(t XOR last), where last
// is the time bucket 0 currently holds: bucket 0 is every event at
// exactly last, and every event of bucket i fires before every event of
// bucket j > i. Bucket 0 is consumed front to back; when it drains, the
// lowest occupied bucket is redistributed around its own minimum, which
// moves each of its events to a strictly lower bucket, so an event is
// moved at most once per bit of its delay (≈3 times in practice).
//
// Pushes append and redistribution walks a bucket front to back, and
// same-time events always share a bucket, so ties fire in scheduling
// order: the total order is (time, scheduling sequence) without storing
// a sequence number.
//
// Finding the earliest event never modifies the queue: each occupied
// bucket remembers its minimum (one compare per push) and a bit mask
// names the lowest occupied bucket, so Run's horizon check is O(1) and
// leaves last untouched when the earliest event lies beyond the horizon
// — a later Schedule between the horizon and that event is still
// accepted and fires in order. Popped and moved slots are zeroed and
// every bucket keeps its capacity, so steady-state Schedule/pop cycles
// allocate nothing.
type Engine struct {
	now     time.Duration
	rng     *rand.Rand
	stopped bool

	// last is the radix reference time: every queued event is at or after
	// it, and bucket 0 holds exactly the events at it. last ≤ now.
	last    time.Duration
	buckets [numBuckets][]event
	// head indexes the next event to pop from bucket 0.
	head int
	// mins[i] is the earliest time in bucket i, valid while bit i of
	// occupied is set (bucket i holds an unpopped event).
	mins     [numBuckets]time.Duration
	occupied uint64
	pending  int
	// maxDepth is the queue-occupancy high-watermark, an observability
	// signal for backlog growth (exported via MaxDepth).
	maxDepth int

	// Processed counts events executed so far; useful for run-away guards
	// in tests.
	Processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (duration since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn at virtual time now+delay. A negative delay is treated
// as zero (fn runs "immediately", after already-queued events at the same
// timestamp).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time at. Times in the past are clamped to
// the current time.
func (e *Engine) At(at time.Duration, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.push(event{at: at, fn: fn})
	e.pending++
	if e.pending > e.maxDepth {
		e.maxDepth = e.pending
	}
}

// Stop makes the current Run or RunAll call return ErrStopped after the
// in-flight event completes.
//
// Semantics, identical across all Run variants (Run, RunAll):
//
//   - The event whose callback called Stop always finishes; an event that
//     was already popped runs to completion even when it shares its
//     timestamp with the stopping event.
//   - No further events are popped, including events at the same virtual
//     time as the stopping event and events exactly at the horizon: they
//     stay queued for a later Run call.
//   - Now() is left at the stopping event's time; it is NOT advanced to
//     the horizon.
//   - The Run variant returns ErrStopped even when the stopping event was
//     the last queued event or the next event lies beyond the horizon
//     (historically those paths returned nil).
//
// Stop only affects the Run variant currently executing: each variant
// clears the flag on entry, so a Stop issued while the engine is idle is
// a no-op.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// MaxDepth reports the largest number of events ever queued at once.
func (e *Engine) MaxDepth() int { return e.maxDepth }

// Run executes events until the queue is empty, the horizon is passed, or
// Stop is called. Events scheduled exactly at the horizon still run;
// events after it remain queued (Now is advanced to the horizon). Run
// returns ErrStopped only when stopped explicitly.
func (e *Engine) Run(horizon time.Duration) error {
	e.stopped = false
	for e.pending > 0 {
		if e.nextAt() > horizon {
			break
		}
		next := e.pop()
		e.now = next.at
		e.Processed++
		next.fn()
		// Checked after the callback (not before the next pop) so the
		// horizon-boundary and queue-drained paths return ErrStopped too;
		// see Stop for the full contract.
		if e.stopped {
			return ErrStopped
		}
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// RunAll executes events until the queue drains or maxEvents fire; it
// guards against run-away feedback loops. It returns ErrStopped when
// stopped, or an error when the event budget is exhausted.
func (e *Engine) RunAll(maxEvents uint64) error {
	e.stopped = false
	var n uint64
	for e.pending > 0 {
		if n >= maxEvents {
			return errors.New("sim: event budget exhausted")
		}
		next := e.pop()
		e.now = next.at
		e.Processed++
		n++
		next.fn()
		// Same post-callback placement as Run: ErrStopped is returned even
		// when the stopping event drained the queue.
		if e.stopped {
			return ErrStopped
		}
	}
	return nil
}

// Ticker repeatedly invokes fn every period until the returned cancel
// function is called or the engine drains. The first invocation happens
// one period from now. A zero or negative period is clamped to
// MinTickerPeriod; positive sub-millisecond periods are honored as
// given.
func (e *Engine) Ticker(period time.Duration, fn func()) (cancel func()) {
	if period <= 0 {
		period = MinTickerPeriod
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.Schedule(period, tick)
		}
	}
	e.Schedule(period, tick)
	return func() { stopped = true }
}

// Radix-queue primitives. Callers keep pending and maxDepth; these keep
// buckets, head, mins, occupied and last consistent with each other.

// push files ev under the current reference time. ev.at ≥ e.last holds
// because At clamps to now and last never passes now.
func (e *Engine) push(ev event) {
	i := bits.Len64(uint64(ev.at ^ e.last))
	if e.occupied&(1<<i) == 0 {
		e.occupied |= 1 << i
		e.mins[i] = ev.at
	} else if ev.at < e.mins[i] {
		e.mins[i] = ev.at
	}
	e.buckets[i] = append(e.buckets[i], ev)
}

// nextAt returns the time of the earliest queued event without touching
// the queue. The queue must not be empty.
func (e *Engine) nextAt() time.Duration {
	return e.mins[bits.TrailingZeros64(e.occupied)]
}

// slideAfter is how many popped slots bucket 0 tolerates at its front
// before it considers sliding its live events down over them.
const slideAfter = 64

// pop removes and returns the earliest event, first pulling the lowest
// occupied bucket down into bucket 0 when that has drained. The vacated
// slot is zeroed so the callback closure it held becomes collectable.
// The queue must not be empty.
func (e *Engine) pop() event {
	if i := bits.TrailingZeros64(e.occupied); i != 0 {
		e.redistribute(i)
	}
	b := e.buckets[0]
	ev := b[e.head]
	b[e.head] = event{}
	e.head++
	switch {
	case e.head == len(b):
		e.buckets[0], e.head = b[:0], 0
		e.occupied &^= 1
	case e.head >= slideAfter && 2*e.head >= len(b):
		// Events that keep scheduling at the current instant never let
		// bucket 0 drain. Once half of it is popped slots, slide the live
		// tail down (amortised O(1)), so its storage follows the live
		// events and not every event the instant has seen.
		n := copy(b, b[e.head:])
		clear(b[n:])
		e.buckets[0], e.head = b[:n], 0
	}
	e.pending--
	return ev
}

// redistribute empties bucket i, the lowest occupied one, around its
// minimum: that minimum becomes the reference time and every event of
// the bucket, in order, lands in a strictly lower bucket (the minimum
// itself and its ties in bucket 0). Events in higher buckets differ from
// the old and the new reference time in the same highest bit, so they
// stay where they are.
func (e *Engine) redistribute(i int) {
	src := e.buckets[i]
	e.buckets[i] = src[:0]
	e.occupied &^= 1 << i
	e.last = e.mins[i]
	for _, ev := range src {
		e.push(ev)
	}
	clear(src)
}
