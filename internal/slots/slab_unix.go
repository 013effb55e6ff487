//go:build unix

package slots

import "syscall"

// pageSize is the system's memory page size.
var pageSize = syscall.Getpagesize()

// mapSlab maps size bytes, rounded up to whole pages, of zeroed private
// anonymous memory.
func mapSlab(size int) ([]byte, error) {
	size = (size + pageSize - 1) &^ (pageSize - 1)
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapSlab unmaps a slab mapSlab returned.
func unmapSlab(mem []byte) error { return syscall.Munmap(mem) }
