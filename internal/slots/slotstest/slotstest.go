// Package slotstest measures what stores retain, heap and mapped slabs
// together, for retention tests and benchmarks.
package slotstest

import (
	"runtime"

	"livesec/internal/slots"
)

// sentinel carries a pointer, so it is never batched into a tiny block
// whose finalizer could wait on another object.
type sentinel struct{ _ *byte }

// Retained returns the live heap plus the process's mapped slabs, once
// the stores that were unreachable before the call have been finalized
// and unmapped. The finalizer goroutine runs each batch it takes whole,
// so when a sentinel dropped after a first one has run, every finalizer
// queued with or before the first has run too; a last collection then
// frees what they released. The figure so does not depend on what ran
// before the caller.
func Retained() int64 {
	for range 2 {
		done := make(chan struct{})
		runtime.SetFinalizer(&sentinel{}, func(*sentinel) { close(done) })
		runtime.GC()
		<-done
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) + slots.MappedBytes()
}
