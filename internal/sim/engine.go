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
// the engine's slot and bucket slices, so scheduling one does not allocate.
type event struct {
	at time.Duration
	fn func()
}

// The near tier is a calendar ring of ringSlots slots of 2^slotShift ns
// (4.096 µs), 4.2 ms in all: constants, not knobs, since 99.9 % of a
// campus run's schedules are packet and protocol delays under 4.2 ms.
// NewEngine carves each slot's first slotPrealloc entries from one array.
const (
	slotShift    = 12
	ringSlots    = 1024
	ringMask     = ringSlots - 1
	slotPrealloc = 4
)

// Engine is a discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; all components of one simulation must
// interact with it from event callbacks (or before Run is called).
//
// Its queue pops in exactly (time, scheduling sequence) order without
// storing a sequence number, in two tiers. Virtual time never runs
// backwards — At clamps to now — so an event whose slot number
// at>>slotShift lies within ringSlots of cur goes to the near tier, a
// calendar ring of slots kept sorted by time, ties in push order; the
// rest, timers seconds to hours out, go to the far tier, a monotone radix
// queue. Every near event precedes every far one. Peeking never modifies
// the queue, so an event scheduled after Run's horizon check, before the
// waiting one, still fires first. Popped entries are zeroed and every
// slice keeps its capacity, so steady-state Schedule/pop cycles allocate
// nothing.
type Engine struct {
	now     time.Duration
	rng     *rand.Rand
	stopped bool

	// cur is the slot number of the ring's first slot; cur ≤ now>>slotShift.
	cur   int64
	slots [ringSlots][]event
	// head indexes the next event to pop in the first slot, the only
	// one popped from.
	head int
	// occ has bit i set while slot i holds an unpopped event; bit w of
	// summary is set while occ[w] is non-zero.
	occ     [ringSlots / 64]uint64
	summary uint16
	far     radix
	pending int
	// maxDepth is the queue-occupancy high-watermark, an observability
	// signal for backlog growth (exported via MaxDepth).
	maxDepth int

	// Processed counts events executed so far; useful for run-away guards
	// in tests.
	Processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	backing := make([]event, ringSlots*slotPrealloc)
	for i := range e.slots {
		e.slots[i] = backing[i*slotPrealloc : i*slotPrealloc : (i+1)*slotPrealloc]
	}
	return e
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
	if s := int64(at >> slotShift); s-e.cur < ringSlots {
		e.insert(int(s&ringMask), event{at: at, fn: fn})
	} else {
		e.far.push(event{at: at, fn: fn})
	}
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

// insert files ev in ring slot i, after every event of the slot that is
// not later than it.
func (e *Engine) insert(i int, ev event) {
	b := e.slots[i]
	n := len(b)
	if n == 0 {
		e.occ[i>>6] |= 1 << (i & 63)
		e.summary |= 1 << (i >> 6)
	}
	b = append(b, ev)
	e.slots[i] = b
	if n == 0 || b[n-1].at <= ev.at {
		return
	}
	lo := 0
	if i == int(e.cur&ringMask) {
		lo = e.head
	}
	j := n
	for ; j > lo && b[j-1].at > ev.at; j-- {
		b[j] = b[j-1]
	}
	b[j] = ev
}

// firstSlot returns the index of the earliest occupied slot, searching
// circularly from cur. The ring must not be empty.
func (e *Engine) firstSlot() int {
	c := int(e.cur & ringMask)
	w := c >> 6
	if m := e.occ[w] >> (c & 63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	// The next occupied word after w, wrapping round to w itself (whose
	// bits from c up are clear).
	w = (w + 1 + bits.TrailingZeros16(bits.RotateLeft16(e.summary, -(w+1)))) & (ringSlots/64 - 1)
	return w<<6 + bits.TrailingZeros64(e.occ[w])
}

// nextAt returns the time of the earliest queued event without touching
// the queue. The queue must not be empty.
func (e *Engine) nextAt() time.Duration {
	if e.summary == 0 {
		return e.far.nextAt()
	}
	i := e.firstSlot()
	if i == int(e.cur&ringMask) {
		return e.slots[i][e.head].at
	}
	return e.slots[i][0].at
}

// slideAfter is how many popped events the first slot tolerates at its
// front before it considers sliding its live events down over them.
const slideAfter = 64

// pop removes and returns the earliest event, first moving the ring to
// the earliest occupied slot (or, with the ring empty, to the far tier's
// minimum). The vacated entry is zeroed so the callback closure it held
// becomes collectable. The queue must not be empty.
func (e *Engine) pop() event {
	c := int(e.cur & ringMask)
	if e.summary == 0 {
		e.advance(int64(e.far.nextAt() >> slotShift))
		c = int(e.cur & ringMask)
	} else if i := e.firstSlot(); i != c {
		e.advance(e.cur + int64((i-c)&ringMask))
		c = i
	}
	b := e.slots[c]
	ev := b[e.head]
	b[e.head] = event{}
	e.head++
	switch {
	case e.head == len(b):
		e.slots[c], e.head = b[:0], 0
		if e.occ[c>>6] &^= 1 << (c & 63); e.occ[c>>6] == 0 {
			e.summary &^= 1 << (c >> 6)
		}
	case e.head >= slideAfter && 2*e.head >= len(b):
		// Events that keep scheduling at the current instant never let
		// the first slot drain. Once half of it is popped entries, slide
		// the live tail down (amortised O(1)), so its storage follows the
		// live events and not every event the instant has seen.
		n := copy(b, b[e.head:])
		clear(b[n:])
		e.slots[c], e.head = b[:n], 0
	}
	e.pending--
	return ev
}

// advance moves the ring's first slot forward to slot number s. Every
// slot it passes is drained (head is 0), and the same storage now serves
// the slots entering the window at the far end: the far tier's events
// that fall there migrate, in (time, sequence) order, before any push
// can reach them.
func (e *Engine) advance(s int64) {
	e.cur = s
	for e.far.occupied != 0 {
		at := e.far.nextAt()
		if int64(at>>slotShift)-s >= ringSlots {
			return
		}
		e.insert(int(at>>slotShift)&ringMask, e.far.pop())
	}
}

// numBuckets is one bucket per position of the highest bit in which a
// non-negative int64 time differs from the reference time, plus bucket 0.
const numBuckets = 64

// radix is the far tier, a monotone radix queue (Ahuja, Mehlhorn, Orlin,
// Tarjan): an event at t lives in bucket bits.Len64(t XOR last), so bucket
// 0 holds the events at last and every event of a lower bucket precedes
// every event of a higher one. Pushes append and redistribution keeps
// their order, so ties pop in push order; kept minima make a peek O(1).
type radix struct {
	// last is the reference time: every queued event is at or after it,
	// and bucket 0 holds exactly the events at it.
	last    time.Duration
	buckets [numBuckets][]event
	// head indexes the next event to pop from bucket 0.
	head int
	// mins[i] is the earliest time in bucket i, valid while bit i of
	// occupied is set (bucket i holds an unpopped event).
	mins     [numBuckets]time.Duration
	occupied uint64
}

// push files ev under the current reference time. ev.at ≥ q.last holds:
// a far event lies past the ring's end, and last is the time of an event
// that already migrated into the ring.
func (q *radix) push(ev event) {
	i := bits.Len64(uint64(ev.at ^ q.last))
	if q.occupied&(1<<i) == 0 {
		q.occupied |= 1 << i
		q.mins[i] = ev.at
	} else if ev.at < q.mins[i] {
		q.mins[i] = ev.at
	}
	q.buckets[i] = append(q.buckets[i], ev)
}

// nextAt returns the earliest queued time; the queue must not be empty.
func (q *radix) nextAt() time.Duration {
	return q.mins[bits.TrailingZeros64(q.occupied)]
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *radix) pop() event {
	if i := bits.TrailingZeros64(q.occupied); i != 0 {
		q.redistribute(i)
	}
	b := q.buckets[0]
	ev := b[q.head]
	b[q.head] = event{}
	q.head++
	if q.head == len(b) {
		q.buckets[0], q.head = b[:0], 0
		q.occupied &^= 1
	}
	return ev
}

// redistribute empties bucket i, the lowest occupied one, around its
// minimum, the new reference time: each of its events, in order, lands in
// a strictly lower bucket, and higher buckets stay where they are.
func (q *radix) redistribute(i int) {
	src := q.buckets[i]
	q.buckets[i] = src[:0]
	q.occupied &^= 1 << i
	q.last = q.mins[i]
	for _, ev := range src {
		q.push(ev)
	}
	clear(src)
}
