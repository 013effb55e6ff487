package slots

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// mapMin is the smallest slab that is mapped: one 4 KiB page.
const mapMin = 4096

// mapped counts the bytes of every slab mapped and not yet unmapped, in
// the process.
var mapped atomic.Int64

// MappedBytes returns the bytes of mapped slabs the process holds, which
// Go's memory statistics do not count.
func MappedBytes() int64 { return mapped.Load() }

// Slabs allocates the slabs of one store: the pages, index words or ring
// pages it keeps for as long as it lives. A slab of a type that holds no
// pointer, filling at least a 4 KiB page, is mapped outside the Go heap
// where the platform allows (slab_unix.go): the collector neither scans
// it nor counts it toward its heap goal, so it is resident once, not
// once more for the headroom the goal leaves. Any other slab is an
// ordinary make, so the collector still sees every pointer.
//
// A mapped slab lives until FreeSlab or FreeAll names it, or until the
// store holding the Slabs is dropped: a finalizer on the small owner the
// Slabs points to unmaps what is left then. A slice or pointer into a
// slab must therefore not outlive the store. The zero Slabs is ready to
// use.
type Slabs struct{ own *owner }

// owner lists the mapped slabs of one store that are still mapped.
type owner struct{ slabs [][]byte }

// unmapAll unmaps every slab o lists.
func (o *owner) unmapAll() {
	for _, mem := range o.slabs {
		unmap(mem)
	}
	o.slabs = nil
}

// unmap gives mem, a slab mapSlab returned, back to the system.
func unmap(mem []byte) {
	if err := unmapSlab(mem); err != nil {
		panic("slots: unmapping a slab: " + err.Error())
	}
	mapped.Add(-int64(len(mem)))
}

// pointerFree caches, by type, whether a type holds no pointer.
var pointerFree sync.Map // reflect.Type → bool

// mappable reports whether a slab of n Ts is mapped: T holds no pointer
// the collector must see, and the slab fills at least a page.
func mappable[T any](n int) bool {
	var v T
	if n*int(unsafe.Sizeof(v)) < mapMin {
		return false
	}
	t := reflect.TypeFor[T]()
	free, ok := pointerFree.Load(t)
	if !ok {
		free, _ = pointerFree.LoadOrStore(t, !hasPointers(t))
	}
	return free.(bool)
}

// hasPointers reports whether a value of type t holds anything the
// collector traces: a pointer, string, slice, map, channel, function or
// interface, directly or in a field or element.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// MakeSlab returns a slab of n zero Ts, mapped if T holds no pointer and
// the slab fills a page, from the Go heap otherwise.
func MakeSlab[T any](s *Slabs, n int) []T {
	if !mappable[T](n) {
		return make([]T, n)
	}
	var v T
	mem, err := mapSlab(n * int(unsafe.Sizeof(v)))
	if err != nil {
		return make([]T, n)
	}
	mapped.Add(int64(len(mem)))
	if s.own == nil {
		s.own = &owner{}
		runtime.SetFinalizer(s.own, (*owner).unmapAll)
	}
	s.own.slabs = append(s.own.slabs, mem)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}

// FreeSlab gives back a slab MakeSlab returned from s, resliced or not.
// Neither it nor anything pointing into it may be used after.
func FreeSlab[T any](s *Slabs, b []T) {
	if s.own == nil || !mappable[T](cap(b)) {
		return
	}
	slabs, p := s.own.slabs, unsafe.Pointer(unsafe.SliceData(b))
	for i, mem := range slabs {
		if unsafe.Pointer(unsafe.SliceData(mem)) == p {
			slabs[i] = slabs[len(slabs)-1]
			s.own.slabs = slabs[:len(slabs)-1]
			unmap(mem)
			return
		}
	}
	// Not listed: the mapping failed and MakeSlab fell back to the heap.
}

// FreeAll gives back every slab MakeSlab returned from s.
func (s *Slabs) FreeAll() {
	if s.own != nil {
		s.own.unmapAll()
	}
}
