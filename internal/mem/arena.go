// Package mem simulates the physical memory substrate of FlexOS.
//
// Memory is a single paged arena (the machine's RAM). Every page is
// tagged with a protection key, mirroring Intel MPK's page-granularity
// domains: the MPK backend places each compartment's static memory,
// heap, stack and TLS in its own key. The page table (the page->key
// mapping) belongs to the memory manager, which is why the paper notes
// the MM must be trusted under MPK — whoever can edit this table can
// move pages between domains.
//
// On top of the arena the package provides a first-fit Heap with
// coalescing free lists. FlexOS images can instantiate one heap per
// compartment (required by the VM backend, and the key to cheap
// software hardening in Fig. 4) or a single shared heap.
//
// Arena memory is zeroed on first touch rather than at allocation: a
// machine's RAM is 6-16 MiB, of which a run touches a few pages, and
// clearing all of it dominated boot time. Bytes is the only path to
// the backing store, and it clears every page of the range it returns
// the first time that page is handed out, so every observable byte is
// exactly what an eagerly zeroed arena would hold.
package mem

import (
	"errors"
	"fmt"
	"unsafe"
)

// PageSize is the page granularity of protection-key tagging.
const PageSize = 4096

// Addr is an address in the simulated physical arena.
type Addr uint64

// NilAddr is the null address; the first page is never allocatable so
// that NilAddr is always invalid, like a real zero page.
const NilAddr Addr = 0

// Key is a protection key. Intel MPK provides 16.
type Key uint8

// NumKeys is the number of protection keys available (Intel MPK).
const NumKeys = 16

// KeyShared is the conventional key for memory shared between all
// compartments (key 0 is "default" on Linux pkeys as well).
const KeyShared Key = 0

// Common arena errors.
var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrBadAddress  = errors.New("mem: address out of range")
	ErrBadFree     = errors.New("mem: free of unallocated address")
	ErrBadRange    = errors.New("mem: range not page aligned or out of bounds")
)

// Arena is the simulated physical memory plus its page table.
type Arena struct {
	data   []byte // not cleared at allocation; see Bytes
	keys   []Key  // one per page
	zeroed []bool // zeroed[p] is set once page p has been cleared
}

// mallocgc is the runtime's allocator. Called with a nil type and
// needzero=false it returns pointer-free memory without clearing it,
// which is what lets an arena skip the eager clear that make([]byte)
// performs; Bytes clears each page before its first use instead. The
// symbol is on the runtime's list of linknames that widely used
// packages depend on (the "hall of shame" comment in runtime/malloc.go)
// and has been kept accessible since Go 1.23. Should a future Go drop
// it, the fallback is a newBacking that returns make([]byte, n): the
// arena stays correct (Bytes then clears already-zero pages) and boots
// pay the eager clear again.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// newBacking returns n bytes of uncleared, pointer-free memory.
func newBacking(n int) []byte {
	return unsafe.Slice((*byte)(mallocgc(uintptr(n), nil, false)), n)
}

// NewArena allocates an arena of the given size, rounded up to a whole
// number of pages. The first page is reserved (never handed out) so
// that address 0 stays invalid. No page is cleared until Bytes first
// hands it out.
func NewArena(size int) *Arena {
	pages := (size + PageSize - 1) / PageSize
	if pages < 2 {
		pages = 2
	}
	return &Arena{
		data:   newBacking(pages * PageSize),
		keys:   make([]Key, pages),
		zeroed: make([]bool, pages),
	}
}

// Size reports the arena size in bytes.
func (a *Arena) Size() int { return len(a.data) }

// Pages reports the number of pages in the arena.
func (a *Arena) Pages() int { return len(a.keys) }

// TouchedPages reports how many pages Bytes has cleared so far: the
// part of the arena a run has actually used.
func (a *Arena) TouchedPages() int {
	n := 0
	for _, z := range a.zeroed {
		if z {
			n++
		}
	}
	return n
}

// Contains reports whether [addr, addr+n) lies inside the arena. The
// comparison never forms addr+n, so it cannot wrap; an empty range at
// the very end of the arena is inside.
func (a *Arena) Contains(addr Addr, n int) bool {
	size := uint64(len(a.data))
	return addr > 0 && n >= 0 && uint64(addr) <= size && uint64(n) <= size-uint64(addr)
}

// Bytes returns the backing slice for [addr, addr+n) without any
// protection check. Isolation-aware accesses must go through an
// mpk.View; Bytes is for trusted infrastructure (devices, loaders).
//
// Bytes is the only accessor of the backing store. It clears each page
// of the range the first time it hands that page out, and caps the
// slice at the range's end so no caller can reach a page that is not
// cleared yet. A non-empty range of at most a page whose pages are
// already cleared takes an inlined fast path.
func (a *Arena) Bytes(addr Addr, n int) ([]byte, error) {
	if a.cleared(addr, n) {
		return a.data[addr : addr+Addr(n) : addr+Addr(n)], nil
	}
	return a.bytesSlow(addr, n)
}

// cleared reports whether 0 < n <= PageSize, [addr, addr+n) lies in
// the arena and both pages it can overlap are cleared. first is tested
// before last is formed, so addr+n-1 cannot wrap.
func (a *Arena) cleared(addr Addr, n int) bool {
	first := uint64(addr) / PageSize
	if addr == 0 || uint(n-1) >= PageSize || first >= uint64(len(a.zeroed)) || !a.zeroed[first] {
		return false
	}
	last := (uint64(addr) + uint64(n) - 1) / PageSize
	return last < uint64(len(a.zeroed)) && a.zeroed[last]
}

// bytesSlow is Bytes for ranges the fast path does not cover: it
// checks the range and clears the pages not cleared yet.
func (a *Arena) bytesSlow(addr Addr, n int) ([]byte, error) {
	if !a.Contains(addr, n) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrBadAddress, addr, n)
	}
	if n > 0 {
		for p := int(addr) / PageSize; p <= (int(addr)+n-1)/PageSize; p++ {
			if !a.zeroed[p] {
				clear(a.data[p*PageSize : (p+1)*PageSize])
				a.zeroed[p] = true
			}
		}
	}
	return a.data[addr : addr+Addr(n) : addr+Addr(n)], nil
}

// KeyAt reports the protection key of the page containing addr.
func (a *Arena) KeyAt(addr Addr) (Key, error) {
	if !a.Contains(addr, 1) {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	return a.keys[int(addr)/PageSize], nil
}

// SetKeyRange tags all pages overlapping [addr, addr+n) with key.
// It is the simulated pkey_mprotect: only the memory manager (a trusted
// component under the MPK backend) may call it.
func (a *Arena) SetKeyRange(addr Addr, n int, key Key) error {
	if key >= NumKeys {
		return fmt.Errorf("mem: key %d out of range", key)
	}
	if n <= 0 || !a.Contains(addr, n) {
		return fmt.Errorf("%w: [%#x,+%d)", ErrBadRange, addr, n)
	}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	for p := first; p <= last; p++ {
		a.keys[p] = key
	}
	return nil
}

// CheckKey verifies that every page in [addr, addr+n) carries exactly
// the given key. It is used by tests and by the builder's validation.
func (a *Arena) CheckKey(addr Addr, n int, key Key) bool {
	if !a.Contains(addr, n) {
		return false
	}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	for p := first; p <= last; p++ {
		if a.keys[p] != key {
			return false
		}
	}
	return true
}

// KeysIn returns the set of keys present in [addr, addr+n).
func (a *Arena) KeysIn(addr Addr, n int) ([]Key, error) {
	if !a.Contains(addr, n) {
		return nil, fmt.Errorf("%w: [%#x,+%d)", ErrBadAddress, addr, n)
	}
	seen := [NumKeys]bool{}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	var out []Key
	for p := first; p <= last; p++ {
		if !seen[a.keys[p]] {
			seen[a.keys[p]] = true
			out = append(out, a.keys[p])
		}
	}
	return out, nil
}
