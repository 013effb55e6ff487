package slots

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"livesec/internal/flow"
	"livesec/internal/netpkt"
)

// rec is a test slot: a key and a value that is never 0, so a live rec
// is never the zero rec.
type rec struct {
	key flow.Key
	val uint64
}

// store is an owner of the shape both real ones take: slots in Pages,
// found by key through an Index of KeyTag.
type store struct {
	pages Pages[rec]
	index Index
	seed  maphash.Seed
}

func (s *store) find(k flow.Key) (uint32, bool) {
	return s.index.Find(KeyTag(s.seed, k), func(id uint32) bool { return s.pages.At(id).key == k })
}

func (s *store) add(r rec) uint32 {
	id, p := s.pages.New()
	if *p != (rec{}) {
		panic(fmt.Sprintf("New handed out slot %d holding %+v", id, *p))
	}
	*p = r
	s.index.Insert(KeyTag(s.seed, r.key), id)
	return id
}

func (s *store) remove(id uint32) {
	s.index.Remove(KeyTag(s.seed, s.pages.At(id).key), id)
	s.pages.Free(id)
}

// compact refiles the store as its owners do, in val order.
func (s *store) compact() bool {
	live, ok := s.pages.Drain(func(a, b rec) int { return cmp.Compare(a.val, b.val) })
	if ok {
		s.index = Index{}
		for _, r := range live {
			s.add(r)
		}
	}
	return ok
}

func key(i int) flow.Key {
	return flow.Key{EthType: netpkt.EtherTypeIPv4, IPSrc: netpkt.IP(10, byte(i>>16), byte(i>>8), byte(i)),
		IPProto: netpkt.ProtoTCP, SrcPort: uint16(i), DstPort: 80}
}

// withHash runs f with KeyHash replaced by h.
func withHash(t *testing.T, h func(maphash.Seed, flow.Key) uint64, f func()) {
	saved := KeyHash
	KeyHash = h
	defer func() { KeyHash = saved }()
	f()
}

// hashes are the hashes the oracle runs under: the real one, and ones
// that put every key under one of a few tags, each tag's home word far
// from the others' or next to them.
var hashes = []struct {
	name string
	h    func(maphash.Seed, flow.Key) uint64
}{
	{"maphash", KeyHash},
	{"one-tag", func(maphash.Seed, flow.Key) uint64 { return 7 << 32 }},
	{"three-tags", func(_ maphash.Seed, k flow.Key) uint64 { return uint64(k.SrcPort%3) << 40 }},
	{"adjacent-tags", func(_ maphash.Seed, k flow.Key) uint64 { return (15 + uint64(k.SrcPort%4)) << 32 }},
}

// Property: under random inserts, finds and removes, Index + Pages hold
// exactly what a Go map of the live keys holds. Each live key keeps the
// ID it was filed under until a compaction, IDs are handed out densely
// from 0 with freed ones reused last in, first out, and the pages are a
// first page that doubles from FirstPageSlots followed by full pages of
// PageSlots. It runs at sizes on each side of the first page's start and
// of page edges, under the real hash and under hashes that force every
// key into a few tags.
func TestPropertyStoreMatchesMap(t *testing.T) {
	for _, hc := range hashes {
		for _, n := range []int{7, 8, 9, 1023, 1024, 1025, 2049} {
			t.Run(fmt.Sprintf("%s/%d", hc.name, n), func(t *testing.T) {
				withHash(t, hc.h, func() { checkStoreMatchesMap(t, n) })
			})
		}
	}
}

type modelRec struct {
	id  uint32
	val uint64
}

func checkStoreMatchesMap(t *testing.T, n int) {
	r := rand.New(rand.NewSource(int64(n)))
	s := &store{seed: maphash.MakeSeed()}
	model := map[flow.Key]modelRec{}
	var freed []uint32 // the store's free IDs, last freed last
	next := uint64(1)
	insert := func(k flow.Key) {
		want := uint32(s.pages.Size())
		if m := len(freed); m > 0 {
			want, freed = freed[m-1], freed[:m-1]
		}
		if id := s.add(rec{k, next}); id != want {
			t.Fatalf("New handed out ID %d, want %d", id, want)
		}
		model[k] = modelRec{want, next}
		next++
	}
	remove := func(k flow.Key) {
		m := model[k]
		s.remove(m.id)
		freed = append(freed, m.id)
		delete(model, k)
	}
	check := func(step int) {
		t.Helper()
		if s.pages.Len() != len(model) || s.index.Len() != len(model) {
			t.Fatalf("step %d: %d slots live, %d indexed, want %d", step, s.pages.Len(), s.index.Len(), len(model))
		}
		size, pages := s.pages.Size(), s.pages.Pages()
		for i, pg := range pages {
			if i < len(pages)-1 && len(pg) != PageSlots {
				t.Fatalf("step %d: page %d of %d holds %d slots, want %d", step, i, len(pages), len(pg), PageSlots)
			}
		}
		if size > 0 {
			if c := cap(pages[0]); c > max(FirstPageSlots, 2*len(pages[0])) || c > PageSlots || c&(c-1) != 0 {
				t.Fatalf("step %d: first page has room for %d slots and holds %d", step, c, len(pages[0]))
			}
		}
		live := 0
		for _, pg := range pages {
			for _, v := range pg {
				if v != (rec{}) {
					live++
				}
			}
		}
		if live != len(model) {
			t.Fatalf("step %d: %d non-zero slots, want %d", step, live, len(model))
		}
		for k, m := range model {
			id, ok := s.find(k)
			if !ok || id != m.id || *s.pages.At(id) != (rec{k, m.val}) {
				t.Fatalf("step %d: find(%v) = %d, %v holding %+v; want %d holding %d", step, k, id, ok, *s.pages.At(id), m.id, m.val)
			}
		}
	}
	for i := range n {
		insert(key(i))
	}
	check(-1)
	if got := s.pages.Size(); got != n {
		t.Fatalf("a filled store handed out %d IDs, want %d", got, n)
	}
	for step := range 4 * n {
		k := key(r.Intn(2 * n))
		_, live := model[k]
		switch op := r.Intn(4); {
		case op == 0 && live:
			remove(k)
		case op == 1 && !live:
			insert(k)
		default:
			if id, ok := s.find(k); ok != live || live && id != model[k].id {
				t.Fatalf("step %d: find(%v) = %d, %v; model says %v", step, k, id, ok, live)
			}
		}
		if step%(n/2+1) == 0 {
			check(step)
		}
	}
	check(-2)
	// Drain down to one key: compaction refiles in val order, so IDs
	// follow insertion order again, and at the end at most the first
	// page's worth of IDs are handed out.
	keys := make([]flow.Key, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys[:len(keys)-1] {
		remove(k)
		size := s.pages.Size()
		if s.compact() {
			if len(model)*4 >= size || size <= FirstPageSlots {
				t.Fatalf("compacted %d live of %d handed out", len(model), size)
			}
			byVal := make([]modelRec, 0, len(model))
			for k, m := range model {
				id, _ := s.find(k)
				model[k] = modelRec{id, m.val}
				byVal = append(byVal, model[k])
			}
			slices.SortFunc(byVal, func(a, b modelRec) int { return cmp.Compare(a.val, b.val) })
			for i, m := range byVal {
				if m.id != uint32(i) {
					t.Fatalf("compaction put val %d, the %d'th live, at ID %d", m.val, i, m.id)
				}
			}
			freed = nil
		}
		if i%(n/4+1) == 0 {
			check(i)
		}
	}
	check(-3)
	if got := s.pages.Size(); got > FirstPageSlots && len(keys) > 1 {
		t.Fatalf("one live slot of %d handed out after the drain, want at most %d", got, FirstPageSlots)
	}
}

// longestRun is the longest run of occupied words in x, wrapping around.
func longestRun(x *Index) int {
	run, longest := 0, 0
	for i := 0; i < 2*len(x.words); i++ {
		if x.words[i%len(x.words)] == 0 {
			run = 0
		} else if run++; run > longest {
			longest = run
		}
	}
	return min(longest, x.n)
}

// Keys that all hash alike share one home word and file in one probe run,
// which a removal from its middle closes up by backward shift.
func TestIndexCollidingTagsOneRun(t *testing.T) {
	withHash(t, hashes[1].h, func() {
		s := &store{seed: maphash.MakeSeed()}
		for i := range 20 {
			s.add(rec{key(i), uint64(i + 1)})
		}
		id, _ := s.find(key(3))
		s.remove(id)
		if got := longestRun(&s.index); got != 19 || s.index.Len() != 19 {
			t.Fatalf("constant hash: longest probe run %d for %d IDs, want one run of 19", got, s.index.Len())
		}
		for i := range 20 {
			if _, ok := s.find(key(i)); ok != (i != 3) {
				t.Fatalf("find(key %d) = %v after removing key 3", i, ok)
			}
		}
	})
}
