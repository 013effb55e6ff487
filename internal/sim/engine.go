// Package sim provides a deterministic discrete-event simulation engine.
//
// All LiveSec data-plane behaviour (packet transmission, queuing,
// propagation, service-element processing) is scheduled on a virtual clock
// owned by an Engine. Events fire in (time, sequence) order, so a run with
// a fixed seed is fully reproducible.
package sim

import (
	"errors"
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
// the engine's heap slice, so scheduling one does not allocate.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before reports whether a fires before b: (time, sequence) order, so
// same-timestamp events fire in the order they were scheduled.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; all components of one simulation must
// interact with it from event callbacks (or before Run is called).
//
// The pending-event queue is an index-free 4-ary min-heap laid out in a
// single value slice. Compared to the previous container/heap of *event
// pointers this removes one allocation per Schedule, the interface-call
// indirection on every sift step, and (being 4-ary) halves the tree depth
// so sift-down touches fewer cache lines. Popped slots are zeroed and the
// slice's tail capacity is retained as the free list, so steady-state
// Schedule/pop cycles allocate nothing.
type Engine struct {
	now     time.Duration
	seq     uint64
	heap    []event
	rng     *rand.Rand
	stopped bool
	// maxDepth is the heap-occupancy high-watermark, an observability
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
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
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
func (e *Engine) Pending() int { return len(e.heap) }

// MaxDepth reports the largest number of events ever queued at once.
func (e *Engine) MaxDepth() int { return e.maxDepth }

// Run executes events until the queue is empty, the horizon is passed, or
// Stop is called. Events scheduled exactly at the horizon still run;
// events after it remain queued (Now is advanced to the horizon). Run
// returns ErrStopped only when stopped explicitly.
func (e *Engine) Run(horizon time.Duration) error {
	e.stopped = false
	for len(e.heap) > 0 {
		if e.heap[0].at > horizon {
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
	for len(e.heap) > 0 {
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

// 4-ary heap primitives. Children of node i live at 4i+1 … 4i+4, the
// parent at (i-1)/4. Sift loops hold the moving event in a register and
// shift displaced nodes instead of swapping, so each level costs one
// copy.

// push appends ev and restores the heap invariant by sifting it up.
func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	if len(e.heap) > e.maxDepth {
		e.maxDepth = len(e.heap)
	}
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = ev
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the callback closure it held becomes collectable; the slot
// itself stays in the slice's capacity as free-list space for the next
// push.
func (e *Engine) pop() event {
	h := e.heap
	min := h[0]
	last := len(h) - 1
	ev := h[last]
	h[last] = event{}
	e.heap = h[:last]
	if last > 0 {
		e.siftDown(ev)
	}
	return min
}

// siftDown places ev, logically at the root, into its final position.
func (e *Engine) siftDown(ev event) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
