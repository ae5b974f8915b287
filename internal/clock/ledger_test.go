package clock

import (
	"fmt"
	"strings"
	"testing"
)

// TestChargeZeroJoinsKeySet pins that a component charged 0 cycles is
// still in the ledger's key set: such keys reach attribution rows and
// fingerprints.
func TestChargeZeroJoinsKeySet(t *testing.T) {
	m := NewMachine(2)
	m.Charge(CompSH, 0)
	m.CPU(1).Charge(CompFault, 0)
	if by := m.CPU(0).ByComponent(); len(by) != 1 || by[CompSH] != 0 {
		t.Fatalf("cpu0 ByComponent = %v, want map[sh:0]", by)
	}
	if by, ok := m.ByComponent()[CompFault]; !ok || by != 0 {
		t.Fatalf("machine ByComponent = %v, want fault:0 present", m.ByComponent())
	}
	if _, ok := m.ByComponent()[CompNet]; ok {
		t.Fatal("uncharged component in ByComponent")
	}
}

func TestResetClearsKeySet(t *testing.T) {
	c := New()
	c.Charge(CompApp, 42)
	c.Charge(CompSH, 0)
	c.Reset()
	if by := c.ByComponent(); len(by) != 0 {
		t.Fatalf("ByComponent after Reset = %v, want empty", by)
	}
	if got := c.String(); got != "cpu: 0 cycles (0s)" {
		t.Fatalf("String after Reset = %q", got)
	}
}

func TestChargeUnknownComponentPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("charge to a component outside the closed set did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"bogus"`) {
			t.Fatalf("panic %q does not name the component", msg)
		}
	}()
	New().Charge(Component("bogus"), 1)
}

// TestStringMixedLedger pins CPU.String byte for byte: largest consumer
// first, ties by name, zero-cycle components listed last.
func TestStringMixedLedger(t *testing.T) {
	c := New()
	c.Charge(CompNet, 2100)
	c.Charge(CompGate, 366)
	c.Charge(CompLibC, 366)
	c.Charge(CompSH, 0)
	c.Charge(CompApp, 7)
	want := "cpu: 2839 cycles (1.351µs)\n" +
		"  netstack           2100 ( 74.0%)\n" +
		"  gate                366 ( 12.9%)\n" +
		"  libc                366 ( 12.9%)\n" +
		"  app                   7 (  0.2%)\n" +
		"  sh                    0 (  0.0%)"
	if got := c.String(); got != want {
		t.Fatalf("String =\n%s\nwant\n%s", got, want)
	}
}

// TestChargeAndSteerAllocateNothing pins the per-request clock path:
// a charge and an interrupt steer with its restore allocate nothing.
func TestChargeAndSteerAllocateNothing(t *testing.T) {
	m := NewMachine(2)
	if n := testing.AllocsPerRun(100, func() { m.Charge(CompNet, 3) }); n != 0 {
		t.Errorf("Machine.Charge: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		restore := m.Steer(1)
		m.Charge(CompNet, 3)
		restore()
	}); n != 0 {
		t.Errorf("Machine.Steer + restore: %v allocs, want 0", n)
	}
	if m.CurID() != 0 {
		t.Fatalf("CurID after restores = %d, want 0", m.CurID())
	}
}
