package obs

import (
	"unsafe"

	"livesec/internal/slots"
)

// Ring keeps the last capacity values pushed to it. Values are numbered
// densely from 0 in push order, so value q lives in slot q mod capacity.
// The slots are allocated a page at a time as the ring's first pass
// reaches each page, and a page is never copied: a ring that never fills
// costs only the pages it reached, and filling one never holds two copies
// of it at once, as growing a slice by append does. The monitor's event
// log, the span ring and the alert transition log are all Rings. A Ring
// is not safe for concurrent use.
//
// Pages come from slots.MakeSlab: a full page of a pointer-free T (the
// event log's records, the spans) is mapped outside the Go heap and
// unmapped when the ring is dropped, so a pointer from Next or At must
// not outlive the ring; a page of any other T is on the heap.
type Ring[T any] struct {
	capacity int
	page     int   // the most values one page holds
	pages    [][]T // slot i is pages[i/page][i%page]
	n        uint64
	slabs    slots.Slabs
}

// ringPageBytes is the most bytes one page of a Ring takes: the largest
// small size class of the Go allocator, less the 8-byte header it puts in
// front of an object over 512 bytes that holds pointers, so that a heap
// page does not spill into a 40,960-byte span. A mapped page is rounded
// up to whole 4 KiB pages instead: one of the monitor's 48-byte records
// holds 682 of them in 32,736 bytes and maps 32,768.
const ringPageBytes = 32768 - 8

// NewRing returns an empty ring that keeps the last capacity values
// (capacity > 0).
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	var v T
	return Ring[T]{capacity: capacity, page: max(1, ringPageBytes/max(1, int(unsafe.Sizeof(v))))}
}

// Push appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) { *r.Next() = v }

// Next claims the slot of the next value and returns it for the caller
// to fill in place. Once the ring is full the slot still holds the
// oldest value, which the caller overwrites.
func (r *Ring[T]) Next() *T {
	i := int(r.n % uint64(r.capacity))
	if p := i / r.page; p == len(r.pages) { // the first pass reaches a new page
		r.addPage(p)
	}
	r.n++
	return &r.pages[i/r.page][i%r.page]
}

// addPage allocates page p, out of line so that Next stays small enough
// to inline.
func (r *Ring[T]) addPage(p int) {
	r.pages = append(r.pages, slots.MakeSlab[T](&r.slabs, min(r.page, r.capacity-p*r.page)))
}

// Total returns the number of values ever pushed.
func (r *Ring[T]) Total() uint64 { return r.n }

// Len returns the number of values retained.
func (r *Ring[T]) Len() int { return int(min(r.n, uint64(r.capacity))) }

// Oldest returns the number of the oldest retained value: the retained
// values are numbered Oldest() to Total()-1.
func (r *Ring[T]) Oldest() uint64 { return r.n - uint64(r.Len()) }

// At returns the value numbered q, which must be retained.
func (r *Ring[T]) At(q uint64) *T {
	i := int(q % uint64(r.capacity))
	return &r.pages[i/r.page][i%r.page]
}

// Values returns a copy of the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	out := make([]T, 0, r.Len())
	for q := r.Oldest(); q < r.n; q++ {
		out = append(out, *r.At(q))
	}
	return out
}
