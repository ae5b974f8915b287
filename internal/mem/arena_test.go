package mem

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestArenaRangeWrap pins the bounds check at the top of the address
// space: each range below wraps when addr+n is formed in 64 bits, and
// every accessor must reject it rather than index or slice with it.
func TestArenaRangeWrap(t *testing.T) {
	cases := []struct {
		name string
		addr Addr
		n    int
	}{
		{"sum-wraps-to-9", 0xfffffffffffffff5, 20},
		{"last-byte", math.MaxUint64, 1},
		{"page-before-top", math.MaxUint64 - PageSize + 1, PageSize + 1},
		{"sum-wraps-to-0", 1<<63 + 1, math.MaxInt64},
	}
	a := NewArena(8 * PageSize)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if a.Contains(c.addr, c.n) {
				t.Fatal("Contains accepted a wrapping range")
			}
			if _, err := a.Bytes(c.addr, c.n); !errors.Is(err, ErrBadAddress) {
				t.Fatalf("Bytes err = %v, want ErrBadAddress", err)
			}
			if _, err := a.KeyAt(c.addr); !errors.Is(err, ErrBadAddress) {
				t.Fatalf("KeyAt err = %v, want ErrBadAddress", err)
			}
			if err := a.SetKeyRange(c.addr, c.n, 1); !errors.Is(err, ErrBadRange) {
				t.Fatalf("SetKeyRange err = %v, want ErrBadRange", err)
			}
			if a.CheckKey(c.addr, c.n, KeyShared) {
				t.Fatal("CheckKey accepted a wrapping range")
			}
			if _, err := a.KeysIn(c.addr, c.n); !errors.Is(err, ErrBadAddress) {
				t.Fatalf("KeysIn err = %v, want ErrBadAddress", err)
			}
		})
	}
	if a.TouchedPages() != 0 {
		t.Fatalf("rejected ranges cleared %d pages", a.TouchedPages())
	}
}

// TestArenaEmptyRangeAtEnd keeps the pre-existing edge: an empty range
// ending exactly at the arena's end is inside, and reading it clears
// nothing.
func TestArenaEmptyRangeAtEnd(t *testing.T) {
	a := NewArena(4 * PageSize)
	b, err := a.Bytes(Addr(a.Size()), 0)
	if err != nil || len(b) != 0 {
		t.Fatalf("Bytes(end, 0) = %d bytes, %v", len(b), err)
	}
	if a.TouchedPages() != 0 {
		t.Fatalf("empty range cleared %d pages", a.TouchedPages())
	}
}

func allZero(b []byte) bool {
	return bytes.IndexFunc(b, func(r rune) bool { return r != 0 }) < 0
}

// dirty fills a fresh arena's whole backing with 0xFF, standing in
// for recycled heap memory that the uncleared allocation may return.
func dirty(a *Arena) *Arena {
	for i := range a.data {
		a.data[i] = 0xFF
	}
	return a
}

// TestArenaZeroOnFirstTouch is the lazy-zero invariant: whatever the
// backing memory held, every byte Bytes hands out reads as zero until
// written, and writes persist across later Bytes calls.
func TestArenaZeroOnFirstTouch(t *testing.T) {
	const size = 64 * PageSize
	a := dirty(NewArena(size))
	ranges := []struct {
		name string
		addr Addr
		n    int
	}{
		{"single-page", 3 * PageSize, PageSize},
		{"inside-page", 5*PageSize + 100, 200},
		{"straddle", 8*PageSize - 7, 14},
		{"multi-page-straddle", 10*PageSize + 1, 3 * PageSize},
		{"whole-arena", 1, size - 1},
	}
	for _, r := range ranges {
		b, err := a.Bytes(r.addr, r.n)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !allZero(b) {
			t.Fatalf("%s: first read is not all zero", r.name)
		}
	}
	if a.TouchedPages() != a.Pages() {
		t.Fatalf("TouchedPages = %d after a whole-arena read, want %d", a.TouchedPages(), a.Pages())
	}

	// Writes made through one Bytes call persist across later ones,
	// including the fast path and whole-arena reads.
	a = dirty(NewArena(size))
	w, _ := a.Bytes(6*PageSize-3, 6)
	copy(w, "flexos")
	if a.TouchedPages() != 2 {
		t.Fatalf("TouchedPages = %d after a straddling write, want 2", a.TouchedPages())
	}
	if cap(w) != len(w) {
		t.Fatalf("cap = %d, want %d: the slice must not reach uncleared pages", cap(w), len(w))
	}
	for i := 0; i < 2; i++ {
		r, _ := a.Bytes(6*PageSize-3, 6)
		if string(r) != "flexos" {
			t.Fatalf("reread %d = %q", i, r)
		}
	}
	all, _ := a.Bytes(1, size-1)
	if got := string(all[6*PageSize-4 : 6*PageSize+2]); got != "flexos" {
		t.Fatalf("whole-arena read lost the write: %q", got)
	}
	all[9*PageSize-1] = 0x5A // address 9*PageSize
	if r, _ := a.Bytes(9*PageSize, 1); r[0] != 0x5A {
		t.Fatalf("write through a whole-arena slice lost: %#x", r[0])
	}
}

// BenchmarkArenaBytes measures Bytes on 1536 B ranges (the largest
// redis-mix value) whose pages are all already cleared, walking the
// arena so that about a third of the ranges straddle a page boundary.
func BenchmarkArenaBytes(b *testing.B) {
	const n = 1536
	a := NewArena(16 << 20)
	if _, err := a.Bytes(PageSize, a.Size()-PageSize); err != nil {
		b.Fatal(err)
	}
	addr := Addr(PageSize)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := a.Bytes(addr, n)
		if err != nil || len(buf) != n {
			b.Fatal(err)
		}
		if addr += n; int(addr)+n > a.Size() {
			addr = PageSize
		}
	}
}
