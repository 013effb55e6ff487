// Package slots is the store behind the data plane's exact flow entries,
// the controller's session records and the event store's attribute
// tuples: fixed-size slots in pages that never move once full, found
// through an open-addressed index of hash tags. Neither part knows what
// a slot holds; the owner hashes its key to a tag and tells the index
// which ID it accepts.
//
// Pages, index words and obs.Ring pages come from one slab allocator
// (slab.go). A slab of a type with no pointer in it — the flow table's
// and the session store's slots, the index's words, the event and span
// rings' records — that fills at least a 4 KiB page is mapped outside the
// Go heap, so these long-lived stores are resident once instead of being
// counted again in the collector's heap goal. A type that holds a string,
// slice or pointer (the event store's attribute tuples, the alert
// transition log) stays on the heap, where the collector sees it; the
// allocator checks each type, not its caller. A mapped slab is unmapped
// on the spot where the store drops it (index growth, first-page growth,
// Drain, Index.Reset) and by a finalizer when the store itself is
// dropped, so a pointer from At or a page from Pages dies at the next New
// or Drain, or with the store.
package slots

import (
	"encoding/binary"
	"hash/maphash"
	"slices"

	"livesec/internal/flow"
)

// KeyHash is the index hash of a flow key: maphash over a fixed 34-byte
// encoding of the 12-tuple. Tests replace it to force collisions.
var KeyHash = func(seed maphash.Seed, k flow.Key) uint64 {
	var b [34]byte
	binary.LittleEndian.PutUint32(b[0:], k.InPort)
	copy(b[4:10], k.EthSrc[:])
	copy(b[10:16], k.EthDst[:])
	binary.LittleEndian.PutUint16(b[16:], k.VLAN)
	binary.LittleEndian.PutUint16(b[18:], uint16(k.EthType))
	copy(b[20:24], k.IPSrc[:])
	copy(b[24:28], k.IPDst[:])
	b[28], b[29] = uint8(k.IPProto), k.IPTOS
	binary.LittleEndian.PutUint16(b[30:], k.SrcPort)
	binary.LittleEndian.PutUint16(b[32:], k.DstPort)
	return maphash.Bytes(seed, b[:])
}

// KeyTag is k's index tag under seed: the high half of KeyHash.
func KeyTag(seed maphash.Seed, k flow.Key) uint32 { return uint32(KeyHash(seed, k) >> 32) }

// Index is an open-addressed hash index of words tag<<32 | ID+1 (0 is
// empty), probed forward from word tag mod len(words). A removal shifts the
// rest of its run back, so there are no tombstones; it doubles past 7/8.
// The zero Index is empty.
type Index struct {
	words []uint64
	n     int
	slabs Slabs
}

// Len returns the number of IDs filed.
func (x *Index) Len() int { return x.n }

// Bytes returns the bytes the index's words hold.
func (x *Index) Bytes() int { return 8 * len(x.words) }

// Find returns the ID filed under tag that eq accepts, or false.
func (x *Index) Find(tag uint32, eq func(id uint32) bool) (uint32, bool) {
	mask := len(x.words) - 1
	for i := int(tag) & mask; mask > 0 && x.words[i] != 0; i = (i + 1) & mask {
		if w := x.words[i]; uint32(w>>32) == tag && eq(uint32(w)-1) {
			return uint32(w) - 1, true
		}
	}
	return 0, false
}

// Insert files id under tag.
func (x *Index) Insert(tag, id uint32) {
	if (x.n+1)*8 > len(x.words)*7 {
		old := x.words
		x.words, x.n = MakeSlab[uint64](&x.slabs, max(16, 2*len(old))), 0
		for _, w := range old {
			if w != 0 {
				x.Insert(uint32(w>>32), uint32(w)-1)
			}
		}
		FreeSlab(&x.slabs, old)
	}
	mask := len(x.words) - 1
	i := int(tag) & mask
	for x.words[i] != 0 {
		i = (i + 1) & mask
	}
	x.words[i] = uint64(tag)<<32 | uint64(id+1)
	x.n++
}

// Reset empties the index, giving its words back.
func (x *Index) Reset() {
	FreeSlab(&x.slabs, x.words)
	x.words, x.n = nil, 0
}

// Remove takes id, filed under tag, out of the index and moves back each
// later word of the run whose home is not between the hole and it
// (Knuth's algorithm R).
func (x *Index) Remove(tag, id uint32) {
	mask, w := len(x.words)-1, uint64(tag)<<32|uint64(id+1)
	i := int(tag) & mask
	for x.words[i] != w {
		i = (i + 1) & mask
	}
	x.words[i] = 0
	for j := (i + 1) & mask; x.words[j] != 0; j = (j + 1) & mask {
		if home := int(x.words[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			x.words[i], x.words[j] = x.words[j], 0
			i = j
		}
	}
	x.n--
}

const (
	// PageSlots is the size of every page but the first.
	PageSlots = 1024
	// FirstPageSlots is the first page's starting size; it doubles up to
	// PageSlots, so a small store holds few slots.
	FirstPageSlots = 8
)

// Pages holds slots of type T under stable uint32 IDs: ID i is slot
// i%PageSlots of page i/PageSlots, and a full page never moves, so a
// pointer from At stays good until the next New, Drain or the store's
// drop. A freed slot is the zero T, and a live one must never be. Freed
// IDs are reused last in, first out. The zero Pages is empty.
type Pages[T comparable] struct {
	pages [][]T
	free  []uint32
	n     int // live slots
	slabs Slabs
}

// Len returns the number of live slots.
func (p *Pages[T]) Len() int { return p.n }

// Size returns the number of IDs handed out, live or freed: every page
// but the last is full.
func (p *Pages[T]) Size() int {
	n := len(p.pages)
	if n == 0 {
		return 0
	}
	return (n-1)*PageSlots + len(p.pages[n-1])
}

// At returns the slot id names.
func (p *Pages[T]) At(id uint32) *T { return &p.pages[id/PageSlots][id%PageSlots] }

// Pages returns the store's pages in ID order, page i holding the IDs
// from i*PageSlots, for walks. Callers must not append to them, and must
// not keep them past the next New or Drain.
func (p *Pages[T]) Pages() [][]T { return p.pages }

// New takes the last freed ID, or a new one at the end of the store, and
// returns it with its slot, which is the zero T.
func (p *Pages[T]) New() (uint32, *T) {
	p.n++
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id, p.At(id)
	}
	n := len(p.pages)
	if n == 0 || len(p.pages[n-1]) == PageSlots {
		p.pages = append(p.pages, MakeSlab[T](&p.slabs, min(PageSlots, FirstPageSlots+n*PageSlots))[:0]) // page 0 starts small
		n++
	}
	pg := p.pages[n-1]
	if len(pg) == cap(pg) { // only the first page grows
		grown := MakeSlab[T](&p.slabs, 2*cap(pg))[:len(pg)]
		copy(grown, pg)
		FreeSlab(&p.slabs, pg)
		pg = grown
	}
	p.pages[n-1] = pg[:len(pg)+1]
	id := uint32((n-1)*PageSlots + len(pg))
	return id, p.At(id)
}

// Free zeroes slot id and files the ID for reuse.
func (p *Pages[T]) Free(id uint32) {
	var zero T
	*p.At(id) = zero
	p.free = append(p.free, id)
	p.n--
}

// Drain does nothing and returns false while at least a quarter of the
// IDs handed out are live, or the store has not outgrown its first page.
// Otherwise it empties the store, giving its pages back, and returns the
// live slots sorted by cmp, for the owner to file again under new IDs
// in a rebuilt index.
func (p *Pages[T]) Drain(cmp func(a, b T) int) ([]T, bool) {
	if size := p.Size(); size <= FirstPageSlots || p.n*4 >= size {
		return nil, false
	}
	var zero T
	live := make([]T, 0, p.n)
	for _, pg := range p.pages {
		for _, s := range pg {
			if s != zero {
				live = append(live, s)
			}
		}
	}
	slices.SortFunc(live, cmp)
	p.slabs.FreeAll()
	*p = Pages[T]{slabs: p.slabs}
	return live, true
}
