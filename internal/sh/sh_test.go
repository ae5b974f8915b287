package sh

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"flexos/internal/clock"
	"flexos/internal/mem"
)

func newASANHeap(t *testing.T) (*ASAN, *Allocator, *clock.CPU) {
	t.Helper()
	a := mem.NewArena(64 * mem.PageSize)
	cpu := clock.New()
	h, err := mem.NewHeap(a, mem.PageSize, 62*mem.PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	asan := NewASAN(a, cpu)
	return asan, NewAllocator(h, asan, cpu), cpu
}

func TestASANCleanAccess(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := asan.Check(clock.CompApp, p, 100, true); err != nil {
		t.Fatalf("clean access reported: %v", err)
	}
	if err := asan.Check(clock.CompApp, p+50, 50, false); err != nil {
		t.Fatalf("clean partial access reported: %v", err)
	}
}

func TestASANHeapOverflow(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// One byte past the end lands in the right redzone.
	err = asan.Check(clock.CompApp, p, 65, true)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "heap-buffer-overflow" {
		t.Fatalf("err = %v, want heap-buffer-overflow", err)
	}
	// Underflow hits the left redzone.
	err = asan.Check(clock.CompApp, p-1, 4, false)
	if !errors.As(err, &v) || v.Kind != "heap-buffer-overflow" {
		t.Fatalf("underflow err = %v", err)
	}
	if asan.Caught() != 2 {
		t.Fatalf("Caught = %d, want 2", asan.Caught())
	}
}

func TestASANUseAfterFree(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	err = asan.Check(clock.CompApp, p, 8, false)
	var v *Violation
	if !errors.As(err, &v) || v.Kind != "use-after-free" {
		t.Fatalf("err = %v, want use-after-free", err)
	}
}

func TestASANQuarantineDelaysReuse(t *testing.T) {
	_, alloc, _ := newASANHeap(t)
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	if alloc.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", alloc.Quarantined())
	}
	// The same address must not be handed out immediately.
	q, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("freed block reused immediately despite quarantine")
	}
}

func TestASANQuarantineEviction(t *testing.T) {
	_, alloc, _ := newASANHeap(t)
	var ptrs []mem.Addr
	for i := 0; i < QuarantineSlots+5; i++ {
		p, err := alloc.Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := alloc.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if alloc.Quarantined() != QuarantineSlots {
		t.Fatalf("Quarantined = %d, want %d", alloc.Quarantined(), QuarantineSlots)
	}
	if err := alloc.Flush(); err != nil {
		t.Fatal(err)
	}
	if alloc.Quarantined() != 0 {
		t.Fatal("Flush left quarantine non-empty")
	}
}

func TestASANDoubleFree(t *testing.T) {
	_, alloc, _ := newASANHeap(t)
	p, _ := alloc.Alloc(16)
	if err := alloc.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := alloc.Free(p); !errors.Is(err, ErrNotInstrumented) {
		t.Fatalf("double free err = %v", err)
	}
}

func TestASANCostCharged(t *testing.T) {
	asan, alloc, cpu := newASANHeap(t)
	before := cpu.Component(clock.CompSH)
	p, _ := alloc.Alloc(64)
	if got := cpu.Component(clock.CompSH) - before; got < clock.CostASANMallocExtra {
		t.Fatalf("malloc charge = %d, want >= %d", got, clock.CostASANMallocExtra)
	}
	before = cpu.Component(clock.CompSH)
	_ = asan.Check(clock.CompApp, p, 64, false)
	want := clock.ASANCheckCycles(64)
	if got := cpu.Component(clock.CompSH) - before; got != want {
		t.Fatalf("check charge = %d, want %d", got, want)
	}
}

// dirtyHeap leaves freed, 0xFF-filled spans of the given size in the
// Go heap, so that an uncleared shadow of that size is likely to start
// out as recycled garbage, which Check would report as poison.
func dirtyHeap(size int) {
	for i := 0; i < 4; i++ {
		b := make([]byte, size)
		for j := range b {
			b[j] = 0xFF
		}
		runtime.KeepAlive(b)
	}
	runtime.GC()
}

// The shadow is a lazily zeroed arena. A redzone or a freed block whose
// shadow page no earlier poison touched is still caught, and untouched
// shadow reads as addressable whatever the Go heap held before.
func TestASANFreshShadowPages(t *testing.T) {
	dirtyHeap(64 * mem.PageSize)
	asan, alloc, _ := newASANHeap(t)
	if err := asan.Check(clock.CompApp, 40*mem.PageSize, 64, false); err != nil {
		t.Fatalf("check before any poison: %v", err)
	}
	small, err := alloc.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	fresh := asan.shadow.TouchedPages()
	// Never-poisoned memory on a shadow page nothing has touched.
	if err := asan.Check(clock.CompApp, 30*mem.PageSize+8, 2*mem.PageSize, true); err != nil {
		t.Fatalf("clean access on fresh shadow pages reported: %v", err)
	}
	if asan.shadow.TouchedPages() != fresh+3 {
		t.Fatalf("a check across 3 fresh pages touched %d", asan.shadow.TouchedPages()-fresh)
	}
	fresh = asan.shadow.TouchedPages()
	// big runs from the small block's page across two fresh ones; its
	// right redzone is on the last of them.
	big, err := alloc.Alloc(2 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := asan.shadow.TouchedPages() - fresh; got != 2 {
		t.Fatalf("allocation touched %d fresh shadow pages, want 2", got)
	}
	var v *Violation
	end := big + 2*mem.PageSize
	if err := asan.Check(clock.CompApp, end-8, 9, true); !errors.As(err, &v) || v.Kind != "heap-buffer-overflow" || v.Addr != end {
		t.Fatalf("overflow into fresh-page redzone: err = %v", err)
	}
	if err := alloc.Free(big); err != nil {
		t.Fatal(err)
	}
	if err := asan.Check(clock.CompApp, end-16, 8, false); !errors.As(err, &v) || v.Kind != "use-after-free" {
		t.Fatalf("use-after-free on fresh page: err = %v", err)
	}
	if err := asan.Check(clock.CompApp, small, 100, false); err != nil {
		t.Fatalf("neighbouring live block reported: %v", err)
	}
}

// n <= 0 poisons nothing and checks nothing, and never materializes or
// touches the shadow.
func TestASANEmptyRangeNoOp(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	asan.poison(mem.PageSize, 0, shadowRedzone)
	asan.poison(mem.PageSize, -5, shadowRedzone)
	if asan.shadow != nil {
		t.Fatal("an empty poison materialized the shadow")
	}
	if err := asan.Check(clock.CompApp, mem.PageSize, 0, false); err != nil {
		t.Fatalf("empty check before any poison: %v", err)
	}
	p, err := alloc.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	touched := asan.shadow.TouchedPages()
	asan.poison(20*mem.PageSize, 0, shadowFreed)
	asan.unpoison(p-1, 0) // would clear a redzone byte if it wrote
	if asan.shadow.TouchedPages() != touched {
		t.Fatal("an empty poison touched a shadow page")
	}
	if err := asan.Check(clock.CompApp, p-1, 0, false); err != nil {
		t.Fatalf("empty check on a redzone: %v", err)
	}
	if err := asan.Check(clock.CompApp, p-1, 1, false); err == nil {
		t.Fatal("redzone lost after empty unpoison")
	}
}

// Property: for any allocation size, in-bounds accesses pass and the
// first byte beyond either edge fails.
func TestASANBoundsProperty(t *testing.T) {
	asan, alloc, _ := newASANHeap(t)
	f := func(szRaw uint8) bool {
		size := 1 + int(szRaw)%512
		p, err := alloc.Alloc(size)
		if err != nil {
			return true // heap exhaustion is not a property failure
		}
		defer alloc.Free(p)
		in := asan.Check(clock.CompApp, p, size, true) == nil
		over := asan.Check(clock.CompApp, p+mem.Addr(size), 1, true) != nil
		under := asan.Check(clock.CompApp, p-1, 1, false) != nil
		return in && over && under
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCFI(t *testing.T) {
	cpu := clock.New()
	cfi := NewCFI()
	cfi.AddTarget("netdev.rx", "tcp.input")
	cfi.AddTarget("netdev.rx", "udp.input")
	if err := cfi.Check(cpu, "netdev.rx", "tcp.input"); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	err := cfi.Check(cpu, "netdev.rx", "shellcode")
	var ce *CFIError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CFIError", err)
	}
	if err := cfi.Check(cpu, "unknown.site", "tcp.input"); err == nil {
		t.Fatal("unknown site accepted")
	}
	if cfi.Checks() != 3 {
		t.Fatalf("Checks = %d, want 3", cfi.Checks())
	}
	if cpu.Component(clock.CompSH) != 3*clock.CostCFICheck {
		t.Fatal("CFI cost not charged")
	}
}

func TestProfileString(t *testing.T) {
	if None.String() != "none" {
		t.Fatal(None.String())
	}
	p := Profile{ASAN: true, CFI: true}
	if p.String() != "asan+cfi" {
		t.Fatal(p.String())
	}
	if !Full.Enabled() || None.Enabled() {
		t.Fatal("Enabled wrong")
	}
}

func TestNilHardenerInert(t *testing.T) {
	var h *Hardener
	if err := h.OnAccess(0x1000, 8, true); err != nil {
		t.Fatal(err)
	}
	if err := h.OnIndirectCall("a", "b"); err != nil {
		t.Fatal(err)
	}
	h.OnFrame()
	h.OnArith()
	if h.Profile().Enabled() {
		t.Fatal("nil hardener reports enabled profile")
	}
}

func TestHardenerRoutesByProfile(t *testing.T) {
	asan, alloc, cpu := newASANHeap(t)
	cfi := NewCFI()
	cfi.AddTarget("s", "t")
	p, _ := alloc.Alloc(16)

	off := NewHardener(clock.CompNet, None, asan, cfi, cpu)
	before := cpu.Component(clock.CompSH)
	if err := off.OnAccess(p+20, 8, true); err != nil {
		t.Fatal("disabled ASAN still checks")
	}
	off.OnFrame()
	if cpu.Component(clock.CompSH) != before {
		t.Fatal("disabled profile charged cycles")
	}

	on := NewHardener(clock.CompNet, Full, asan, cfi, cpu)
	if err := on.OnAccess(p+14, 8, true); err == nil {
		t.Fatal("enabled ASAN missed overflow")
	}
	if err := on.OnIndirectCall("s", "t"); err != nil {
		t.Fatal(err)
	}
	if err := on.OnIndirectCall("s", "x"); err == nil {
		t.Fatal("CFI missed bad edge")
	}
	before = cpu.Component(clock.CompSH)
	on.OnFrame()
	on.OnArith()
	if cpu.Component(clock.CompSH) != before+clock.CostCanary+1 {
		t.Fatal("frame/arith cost wrong")
	}
}
