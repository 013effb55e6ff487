package slots_test

import (
	"os"
	"runtime"
	"testing"
	"unsafe"

	"livesec/internal/flow"
	"livesec/internal/obs"
	"livesec/internal/slots"
	"livesec/internal/slots/slotstest"
)

// rec48 is a 48-byte pointer-free slot, the size of a session slot.
type rec48 struct {
	key flow.Key
	val uint64
}

// pageBytes is what the system maps for a slab of n bytes: nothing under
// 4 KiB, which stays on the heap, and whole pages from there.
func pageBytes(n int) int64 {
	if n < 4096 {
		return 0
	}
	page := os.Getpagesize()
	return int64((n + page - 1) / page * page)
}

// pagesBytes is what p maps: each page's capacity in bytes, as pageBytes.
func pagesBytes(p *slots.Pages[rec48]) int64 {
	var n int64
	for _, pg := range p.Pages() {
		n += pageBytes(cap(pg) * int(unsafe.Sizeof(rec48{})))
	}
	return n
}

// baseline finalizes what earlier tests dropped and returns the bytes
// the process maps then. It skips the test where no slab is mapped.
func baseline(t *testing.T) int64 {
	t.Helper()
	var probe slots.Slabs
	before := slots.MappedBytes()
	slots.MakeSlab[rec48](&probe, 1024)
	mapped := slots.MappedBytes() > before
	probe.FreeAll()
	if !mapped {
		t.Skip("no slab is mapped on", runtime.GOOS)
	}
	slotstest.Retained()
	return slots.MappedBytes()
}

// Each time the index doubles it maps the new words and unmaps the old at
// once: the process maps exactly the current words, and after Reset
// nothing.
func TestIndexGrowthUnmapsWhatItReplaces(t *testing.T) {
	base := baseline(t)
	var x slots.Index
	grew := 0
	for i := range 40000 {
		before := x.Bytes()
		x.Insert(uint32(i*2654435761), uint32(i))
		if x.Bytes() != before {
			grew++
		}
		if got, want := slots.MappedBytes()-base, pageBytes(x.Bytes()); got != want {
			t.Fatalf("after %d inserts the index holds %d bytes of words and the process maps %d more, want %d",
				i+1, x.Bytes(), got, want)
		}
	}
	if pageBytes(x.Bytes()) == 0 || grew < 5 {
		t.Fatalf("the index grew %d times to %d bytes: too little to map", grew, x.Bytes())
	}
	x.Reset()
	if got := slots.MappedBytes() - base; got != 0 || x.Len() != 0 || x.Bytes() != 0 {
		t.Fatalf("after Reset the index holds %d IDs in %d bytes and %d bytes stay mapped, want none",
			x.Len(), x.Bytes(), got)
	}
}

// The first page doubles from FirstPageSlots to PageSlots, each copy
// mapped or on the heap by its size and the copy it replaces unmapped;
// the pages after it are mapped once. Drain then unmaps every page.
func TestPagesGrowthAndDrainUnmapWhatTheyReplace(t *testing.T) {
	base := baseline(t)
	var p slots.Pages[rec48]
	const n = 3*slots.PageSlots + 5
	for i := range n {
		_, s := p.New()
		s.val = uint64(i + 1)
		if got, want := slots.MappedBytes()-base, pagesBytes(&p); got != want {
			t.Fatalf("after %d slots in %d pages the process maps %d more bytes, want %d", i+1, len(p.Pages()), got, want)
		}
	}
	for id := uint32(0); id < n; id++ {
		if got := p.At(id).val; got != uint64(id+1) {
			t.Fatalf("slot %d holds %d after growth, want %d", id, got, id+1)
		}
	}
	for id := uint32(1); id < n; id++ {
		p.Free(id)
	}
	live, ok := p.Drain(func(a, b rec48) int { return int(a.val) - int(b.val) })
	if !ok || len(live) != 1 || live[0].val != 1 {
		t.Fatalf("Drain returned %v, %v; want the one live slot", live, ok)
	}
	if got := slots.MappedBytes() - base; got != 0 || len(p.Pages()) != 0 {
		t.Fatalf("after Drain the store holds %d pages and %d bytes stay mapped, want none", len(p.Pages()), got)
	}
	runtime.KeepAlive(&p)
}

// A store dropped whole is unmapped by its owner's finalizer: 1,000
// stores, each with mapped pages, index words and ring pages, are built
// and dropped, and once the collector has finalized them the process maps
// what it mapped before. A collection every 100 stores keeps what waits
// for it small.
func TestDroppedStoresUnmapped(t *testing.T) {
	base := baseline(t)
	type store struct {
		pages slots.Pages[rec48]
		index slots.Index
		ring  obs.Ring[rec48]
	}
	for i := range 1000 {
		s := &store{ring: obs.NewRing[rec48](1000)}
		for j := range 600 {
			id, r := s.pages.New()
			r.val = uint64(j + 1)
			s.index.Insert(uint32(j), id)
			*s.ring.Next() = *r
		}
		if i == 0 && slots.MappedBytes()-base == 0 {
			t.Fatal("a store of 600 slots maps nothing")
		}
		if i%100 == 99 {
			runtime.GC()
		}
	}
	slotstest.Retained()
	if got := slots.MappedBytes() - base; got != 0 {
		t.Fatalf("1,000 dropped stores leave %d bytes mapped, want 0", got)
	}
}

// Types the collector must trace are never mapped, however large the
// slab: the monitor's attribute tuples (strings), the alert transition
// log (strings), slices and pointers. A pointer-free type of the same
// size is.
func TestPointerTypesNeverMapped(t *testing.T) {
	base := baseline(t)
	type attrs struct { // the shape of monitor's attribute tuple
		sw, se           uint64
		ip, detail, user string
		severity         uint8
		hasKey           bool
		typ              uint16
		refs             uint32
	}
	type withSlice struct {
		b []byte
		n [8]uint64
	}
	type withPointer struct {
		n [8]uint64
		p *rec48
	}
	type nested struct {
		n [4]uint64
		a [2]struct{ s string }
	}
	var s slots.Slabs
	check := func(name string, mapped bool, alloc func() any) {
		t.Helper()
		before := slots.MappedBytes()
		slab := alloc()
		if got := slots.MappedBytes() - before; (got > 0) != mapped {
			t.Errorf("a slab of over 32 KiB of %s mapped %d bytes, want mapped %v", name, got, mapped)
		}
		runtime.KeepAlive(slab)
	}
	check("monitor attrs", false, func() any { return slots.MakeSlab[attrs](&s, 1024) })
	check("obs.AlertTransition", false, func() any { return slots.MakeSlab[obs.AlertTransition](&s, 1024) })
	check("a struct with a slice", false, func() any { return slots.MakeSlab[withSlice](&s, 1024) })
	check("a struct with a pointer", false, func() any { return slots.MakeSlab[withPointer](&s, 1024) })
	check("an array of structs with a string", false, func() any { return slots.MakeSlab[nested](&s, 1024) })
	check("pointers", false, func() any { return slots.MakeSlab[*rec48](&s, 8192) })
	check("strings", false, func() any { return slots.MakeSlab[string](&s, 4096) })
	check("rec48", true, func() any { return slots.MakeSlab[rec48](&s, 1024) })
	s.FreeAll()
	if got := slots.MappedBytes() - base; got != 0 {
		t.Fatalf("FreeAll left %d bytes mapped", got)
	}
}
