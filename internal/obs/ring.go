package obs

// Ring keeps the last capacity values pushed to it. Values are numbered
// densely from 0 in push order, so value q lives in slot q mod capacity.
// The slots are allocated a page at a time as the ring's first pass
// reaches each page, and a page is never copied: a ring that never fills
// costs only the pages it reached, and filling one never holds two copies
// of it at once, as growing a slice by append does. The monitor's event
// log, the span ring and the alert transition log are all Rings. A Ring
// is not safe for concurrent use.
type Ring[T any] struct {
	capacity int
	pages    [][]T // slot i is pages[i/ringPage][i%ringPage]
	n        uint64
}

// ringPage is the most values one page of a Ring holds.
const ringPage = 256

// NewRing returns an empty ring that keeps the last capacity values
// (capacity > 0).
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return Ring[T]{capacity: capacity}
}

// Push appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	i := r.n % uint64(r.capacity)
	if p := int(i / ringPage); p == len(r.pages) { // the first pass reaches a new page
		r.pages = append(r.pages, make([]T, min(ringPage, r.capacity-p*ringPage)))
	}
	r.n++
	*r.slot(i) = v
}

func (r *Ring[T]) slot(i uint64) *T { return &r.pages[i/ringPage][i%ringPage] }

// Total returns the number of values ever pushed.
func (r *Ring[T]) Total() uint64 { return r.n }

// Len returns the number of values retained.
func (r *Ring[T]) Len() int { return int(min(r.n, uint64(r.capacity))) }

// Oldest returns the number of the oldest retained value: the retained
// values are numbered Oldest() to Total()-1.
func (r *Ring[T]) Oldest() uint64 { return r.n - uint64(r.Len()) }

// At returns the value numbered q, which must be retained.
func (r *Ring[T]) At(q uint64) *T { return r.slot(q % uint64(r.capacity)) }

// Values returns a copy of the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	out := make([]T, 0, r.Len())
	for q := r.Oldest(); q < r.n; q++ {
		out = append(out, *r.At(q))
	}
	return out
}
