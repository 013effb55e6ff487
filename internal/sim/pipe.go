package sim

import (
	"fmt"
	"time"
)

// Pipe delivers values of one component at scheduled times without a
// closure per value: At queues the value in a ring and schedules the one
// callback bound at construction, which takes the ring's head and hands
// it to deliver. That is one engine event per value, scheduled at the
// same point and for the same time as a per-value closure would be, so
// event counts and firing order do not change.
//
// The k-th callback must belong to the k-th value, which holds exactly
// when the times passed to At never decrease: the engine fires a
// component's events in (time, scheduling) order. Components whose
// delivery time is "a clock that only moves forward plus a constant" — a
// transmitter's busy-until plus propagation delay, now plus a processing
// delay — satisfy it by construction; At panics on a decreasing time
// rather than deliver a value at another's time.
type Pipe[T any] struct {
	eng     *Engine
	deliver func(T)
	fire    func()
	// ring has power-of-two length; values head … tail-1 are in flight,
	// value i stored at i&(len(ring)-1).
	ring       []T
	head, tail uint
	lastAt     time.Duration
}

// NewPipe returns a pipe that runs deliver on eng for every value given
// to At.
func NewPipe[T any](eng *Engine, deliver func(T)) *Pipe[T] {
	p := &Pipe[T]{eng: eng, deliver: deliver}
	p.fire = p.pop
	return p
}

// At delivers v at absolute virtual time at (clamped to now, as
// Engine.At does). Times must not decrease from one call to the next.
func (p *Pipe[T]) At(at time.Duration, v T) {
	if at < p.lastAt {
		panic(fmt.Sprintf("sim: Pipe.At(%v) after At(%v): times must not decrease", at, p.lastAt))
	}
	p.lastAt = at
	if int(p.tail-p.head) == len(p.ring) {
		p.grow()
	}
	p.ring[p.tail&uint(len(p.ring)-1)] = v
	p.tail++
	p.eng.At(at, p.fire)
}

func (p *Pipe[T]) pop() {
	slot := &p.ring[p.head&uint(len(p.ring)-1)]
	v := *slot
	var zero T
	*slot = zero // drop the ring's reference to whatever v points at
	p.head++
	p.deliver(v)
}

// grow doubles the ring, unwrapping the values in flight to its start.
func (p *Pipe[T]) grow() {
	ring := make([]T, max(2*len(p.ring), 8))
	n := p.tail - p.head
	for i := uint(0); i < n; i++ {
		ring[i] = p.ring[(p.head+i)&uint(len(p.ring)-1)]
	}
	p.ring, p.head, p.tail = ring, 0, n
}
