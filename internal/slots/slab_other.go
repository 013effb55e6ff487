//go:build !unix

package slots

import "errors"

// mapSlab fails where there is no mmap, and MakeSlab falls back to the heap.
func mapSlab(int) ([]byte, error) { return nil, errors.ErrUnsupported }

// unmapSlab is never reached: no slab is mapped.
func unmapSlab([]byte) error { return nil }
